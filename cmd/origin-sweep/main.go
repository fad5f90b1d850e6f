// Command origin-sweep plots parallel efficiency versus problem size for
// one application, like one panel of the paper's Figure 4/9.
//
// Usage:
//
//	origin-sweep -app Barnes [-procs 32,64,128] [-variant spatial] [-scale 8]
//	             [-warm-start checkpoints/sweep]
//
// -warm-start keeps one originckpt/v1 checkpoint per sweep configuration in
// the given directory. The first sweep captures them; later sweeps resume
// each configuration from its saved checkpoint, re-proving byte-equality of
// the replayed state against the recorded state before continuing. Because
// resume is replay-based the simulation work is re-executed either way —
// what the warm start buys is the proof: a sweep that resumes cleanly is
// guaranteed to be reproducing the checkpointed results, and a simulator
// change that alters any configuration's schedule fails its resume loudly
// instead of silently shifting the curves.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"origin2000/cmd/internal/runflags"
	"origin2000/internal/experiments"
	"origin2000/internal/perf"
	"origin2000/internal/scenario"
	"origin2000/internal/sim"
	"origin2000/internal/snapshot"
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
		warmDir   = flag.String("warm-start", "", "directory of per-configuration checkpoints: capture on first sweep, resume (with state proof) on later ones")
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
		procs = append(procs, v)
	}
	var specs []scenario.Spec
	for _, tok := range strings.Split(*scenarios, ",") {
		sc, err := scenario.Load(strings.TrimSpace(tok))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		specs = append(specs, sc)
	}
	var warm *warmStarter
	if *warmDir != "" {
		if err := os.MkdirAll(*warmDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "warm-start dir:", err)
			os.Exit(1)
		}
		warm = &warmStarter{dir: *warmDir}
	}

	variants := []string{""}
	if *variant != "" {
		variants = append(variants, *variant)
	}
	markers := []byte{'a', 'b', 'c', 'A', 'B', 'C'}
	var series []perf.Series
	mi := 0
	for si := range specs {
		sc := specs[si]
		se := experiments.NewSession(experiments.Scale{Div: *scale, CacheDiv: *scale, Seed: *seed, Scenario: &sc})
		for _, v := range variants {
			for _, p := range procs {
				if p > app.MaxProcs() {
					continue
				}
				if err := sc.Validate(p); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(2)
				}
				label := fmt.Sprintf("%d procs", p)
				if v != "" {
					label += " " + v
				}
				if len(specs) > 1 {
					label += " @" + sc.Name
				}
				s := perf.Series{Label: label, Marker: markers[mi%len(markers)]}
				mi++
				for _, size := range app.SweepSizes() {
					var eff float64
					var err error
					if warm != nil {
						eff, err = warm.efficiency(se, app, p, size, v)
					} else {
						eff, _, err = se.Efficiency(app, p, size, v)
					}
					if err != nil {
						fmt.Fprintln(os.Stderr, "error:", err)
						os.Exit(1)
					}
					s.X = append(s.X, float64(se.Scale.Size(app, size)))
					s.Y = append(s.Y, eff)
				}
				series = append(series, s)
			}
		}
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
	if warm != nil {
		fmt.Printf("warm-start: %d configurations resumed with state proofs, %d captured fresh -> %s\n",
			warm.resumed, warm.fresh, warm.dir)
	}
}

// warmStarter resumes sweep configurations from per-config checkpoints,
// capturing one for any configuration that lacks it.
type warmStarter struct {
	dir            string
	resumed, fresh int
}

// efficiency measures one sweep point. With a matching checkpoint on disk
// the run resumes from it — re-proving the replayed state byte-equal to the
// recorded state at the checkpoint's quiescent point — and a divergence
// (the simulator no longer reproduces the checkpointed run) falls back to a
// fresh capture after a loud warning.
func (w *warmStarter) efficiency(se *experiments.Session, app workload.App, procs, paperSize int, variant string) (float64, error) {
	s := se.Scale
	params := s.Params(app, paperSize, variant)
	seq, err := se.Sequential(app, paperSize)
	if err != nil {
		return 0, err
	}
	spec := s.RunSpec(app, params)
	vtag := variant
	if vtag == "" {
		vtag = "orig"
	}
	// Scenario-scoped filename: machines never share warm-start checkpoints.
	// (Header spec equality below would catch a collision anyway, but a
	// shared name would make two scenarios endlessly recapture each other's.)
	mtag := ""
	if s.Scenario != nil && !s.Scenario.IsDefault() {
		mtag = "-" + s.Scenario.Hash()
	}
	path := filepath.Join(w.dir, fmt.Sprintf("sweep-%s-%s-p%d-s%d-d%d%s.originckpt",
		app.Name(), vtag, procs, params.Size, s.Div, mtag))
	if sn, rerr := snapshot.ReadFile(path); rerr == nil && sn.Header.Spec == spec && sn.Header.Procs == procs {
		r, resErr := s.ResumeRun(app, procs, params, sn)
		if resErr == nil {
			w.resumed++
			return perf.Efficiency(seq, r.Elapsed, procs), nil
		}
		var div *snapshot.DivergenceError
		if errors.As(resErr, &div) {
			fmt.Fprintf(os.Stderr, "warm-start: %s: %v — the simulator no longer reproduces this checkpoint; recapturing\n", path, resErr)
		} else {
			fmt.Fprintf(os.Stderr, "warm-start: %s: %v; recapturing\n", path, resErr)
		}
	}
	// Cold path: run once with capture enabled, keeping only the last
	// quiescent snapshot. The grid is sized from the sequential time so a
	// handful of capture points land inside the parallel run.
	every := seq / sim.Time(4*procs)
	if every <= 0 {
		every = 1
	}
	var last *snapshot.Snapshot
	cfg := s.Machine(procs)
	cfg.Checkpoint.Every = every
	cfg.Checkpoint.Spec = spec
	cfg.Checkpoint.Sink = func(sn *snapshot.Snapshot) error {
		last = sn
		return nil
	}
	r, err := s.RunConfig(app, cfg, params)
	if err != nil {
		return 0, err
	}
	w.fresh++
	if last != nil {
		if werr := last.WriteFile(path); werr != nil {
			fmt.Fprintf(os.Stderr, "warm-start: save %s: %v\n", path, werr)
		}
	}
	return perf.Efficiency(seq, r.Elapsed, procs), nil
}
