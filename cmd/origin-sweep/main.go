// Command origin-sweep plots parallel efficiency versus problem size for
// one application, like one panel of the paper's Figure 4/9. Its points are
// Figure 4's: each size is scaled with experiments.Scale.SweepSize.
//
// Usage:
//
//	origin-sweep -app Barnes [-procs 32,64,128] [-variant spatial] [-scale 8]
//	             [-scenario mesh,origin]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"origin2000/cmd/internal/runflags"
	"origin2000/internal/experiments"
	"origin2000/internal/perf"
	"origin2000/internal/scenario"
	"origin2000/internal/workload"
)

func main() {
	var (
		appName   = flag.String("app", "Barnes", "application name")
		procsList = flag.String("procs", "32,64,128", "comma-separated processor counts")
		variant   = flag.String("variant", "", "also plot this variant against the original")
		scale     = flag.Int("scale", 8, "divide problem sizes and cache by this factor")
		seed      = flag.Int64("seed", 42, "input seed")
		scenarios = flag.String("scenario", "", "comma-separated machine scenarios to sweep side by side (preset names or spec .json files); empty = the default Origin machine")
	)
	flag.Parse()

	app := experiments.AppByName(*appName)
	if app == nil {
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *appName)
		os.Exit(2)
	}
	if err := runflags.AtLeast("scale", *scale, 1); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := runflags.Variant(app, *variant); err != nil {
		fmt.Fprintln(os.Stderr, "-variant:", err)
		os.Exit(2)
	}
	var procs []int
	for _, tok := range strings.Split(*procsList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "bad -procs entry %q\n", tok)
			os.Exit(2)
		}
		if v <= app.MaxProcs() {
			procs = append(procs, v)
		}
	}
	if len(procs) == 0 {
		fmt.Fprintf(os.Stderr, "-procs %s: no count within %s's limit of %d processors\n",
			*procsList, app.Name(), app.MaxProcs())
		os.Exit(2)
	}
	var specs []scenario.Spec
	for _, tok := range strings.Split(*scenarios, ",") {
		sc, err := scenario.Load(strings.TrimSpace(tok))
		for i := 0; err == nil && i < len(procs); i++ {
			err = sc.Validate(procs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		specs = append(specs, sc)
	}
	variants := []string{""}
	if *variant != "" {
		variants = append(variants, *variant)
	}

	series, err := sweep(app, procs, variants, specs, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Printf("%s efficiency vs problem size (x = %s, scale 1/%d)\n",
		app.Name(), app.Unit(), *scale)
	for _, sc := range specs {
		if len(specs) > 1 || !sc.IsDefault() {
			fmt.Printf("scenario %s [%s]: %s\n", sc.Name, sc.Hash(), sc.Describe())
		}
	}
	fmt.Println()
	fmt.Println(perf.Curves(series, 64, 14, 1.2))
}

// sweep measures one curve per scenario, variant and processor count, in
// that nesting order, each over the app's sweep sizes.
func sweep(app workload.App, procs []int, variants []string, specs []scenario.Spec, scale int, seed int64) ([]perf.Series, error) {
	markers := []byte{'a', 'b', 'c', 'A', 'B', 'C'}
	var series []perf.Series
	for si := range specs {
		sc := &specs[si]
		se := experiments.NewSession(experiments.Scale{Div: scale, CacheDiv: scale, Seed: seed, Scenario: sc})
		for _, v := range variants {
			for _, p := range procs {
				s, err := se.SweepSeries(app, p, v)
				if err != nil {
					return nil, err
				}
				s.Label = fmt.Sprintf("%d procs", p)
				if v != "" {
					s.Label += " " + v
				}
				if len(specs) > 1 {
					s.Label += " @" + sc.Name
				}
				s.Marker = markers[len(series)%len(markers)]
				series = append(series, s)
			}
		}
	}
	return series, nil
}
