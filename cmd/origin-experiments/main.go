// Command origin-experiments regenerates the paper's tables and figures on
// the simulated machine.
//
// Usage:
//
//	origin-experiments [-run name] [-scale N] [-cachescale N] [-procs list] [-steps N] [-full]
//	                   [-check] [-artifacts DIR]
//
// -run selects one experiment (table1, table2, table3, fig2, fig3, fig4,
// fig5-8, fig9, fig10, sec61, sec63, sec71, sec72, all). -scale divides
// problem sizes (default 8); -cachescale divides the 4MB cache by the same
// factor unless overridden; -full runs the paper's input sizes. -check
// attaches the online coherence-invariant checker to every machine, so any
// protocol violation fails the run with the checker's report; -artifacts
// records ring traces and writes the failing run's trace to DIR.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"origin2000/cmd/internal/runflags"
	"origin2000/internal/core"
	"origin2000/internal/experiments"
	"origin2000/internal/trace"
)

func main() {
	var (
		name       = flag.String("run", "all", "experiment to run: "+strings.Join(experiments.Names(), ", "))
		scale      = flag.Int("scale", 8, "divide problem sizes by this factor")
		cacheScale = flag.Int("cachescale", 0, "divide the cache by this factor (default: same as -scale)")
		procsList  = flag.String("procs", "", "comma-separated processor counts (default: the paper's)")
		steps      = flag.Int("steps", 0, "override timesteps/frames (0 = app defaults)")
		seed       = flag.Int64("seed", 42, "input generation seed")
		full       = flag.Bool("full", false, "run at the paper's input sizes (expensive)")
		check      = flag.Bool("check", false, "run the online coherence checker on every machine; a violation fails the run")
		artifacts  = flag.String("artifacts", "", "record ring traces and write the failing run's Perfetto trace to this directory")
	)
	flag.Parse()

	if err := errors.Join(
		runflags.AtLeast("scale", *scale, 1),
		runflags.AtLeast("cachescale", *cacheScale, 0),
		runflags.AtLeast("steps", *steps, 0),
	); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	s := experiments.Scale{Div: *scale, CacheDiv: *cacheScale, Steps: *steps, Seed: *seed, Check: *check}
	if s.CacheDiv == 0 {
		s.CacheDiv = s.Div
	}
	if *full {
		s.Div, s.CacheDiv = 1, 1
	}
	if *procsList != "" {
		for _, tok := range strings.Split(*procsList, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "bad -procs entry %q\n", tok)
				os.Exit(2)
			}
			s.Procs = append(s.Procs, v)
		}
	}
	fmt.Printf("origin2000 experiments: %s (size scale 1/%d, cache scale 1/%d)\n\n",
		*name, s.Div, s.CacheDiv)
	err := capture(s, *artifacts, func(s experiments.Scale) error {
		return experiments.Run(*name, experiments.NewSession(s), os.Stdout)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if *check {
		fmt.Printf("checked %s: zero coherence violations\n", *name)
	}
}

// capture runs fn at scale s. With an artifacts directory every machine
// records a ring trace, and when fn fails the failing run's trace is
// written there as Perfetto JSON: a failed run aborts its experiment, so it
// is the last machine the trace sink saw.
func capture(s experiments.Scale, artifacts string, fn func(experiments.Scale) error) error {
	var label string
	var last *core.Machine
	if artifacts != "" {
		s.Trace = trace.Options{Enabled: true}
		s.TraceSink = func(l string, m *core.Machine) { label, last = l, m }
	}
	err := fn(s)
	if err != nil && last != nil {
		if path, werr := trace.WriteArtifact(artifacts, label, last.Tracer()); werr != nil {
			fmt.Fprintln(os.Stderr, "trace artifact:", werr)
		} else {
			fmt.Fprintln(os.Stderr, "failing run's trace:", path)
		}
	}
	return err
}
