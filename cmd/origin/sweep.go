package main

import (
	"fmt"
	"io"

	"origin2000/internal/experiments"
	"origin2000/internal/perf"
	"origin2000/internal/scenario"
	"origin2000/internal/workload"
)

// sweepMain is origin sweep: it plots parallel efficiency versus problem
// size for one application, like one panel of the paper's Figure 4/9, on
// each -scenario side by side. Its points are Figure 4's: each size is
// scaled with experiments.Scale.SweepSize. -variant adds the variant's
// curves beside the original's.
func sweepMain(args []string, stdout, stderr io.Writer) int {
	o, fs := newFlagSet("sweep", stderr)
	if !o.parse(fs, args) {
		return 2
	}
	app := o.application
	var procs []int
	for _, p := range o.counts {
		if p <= app.MaxProcs() {
			procs = append(procs, p)
		}
	}
	if len(procs) == 0 {
		fmt.Fprintf(stderr, "origin sweep: -procs %s: no count within %s's limit of %d processors\n",
			o.procs, app.Name(), app.MaxProcs())
		return 2
	}
	variants := []string{""}
	if o.variant != "" {
		variants = append(variants, o.variant)
	}
	series, err := sweep(app, procs, variants, o.specs, o.scale, int64(o.seed))
	if err != nil {
		fmt.Fprintln(stderr, "origin sweep:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s efficiency vs problem size (x = %s, scale 1/%d)\n",
		app.Name(), app.Unit(), o.scale)
	for _, sc := range o.specs {
		if len(o.specs) > 1 || !sc.IsDefault() {
			fmt.Fprintf(stdout, "scenario %s [%s]: %s\n", sc.Name, sc.Hash(), sc.Describe())
		}
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, perf.Curves(series, 64, 14, 1.2))
	return 0
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
