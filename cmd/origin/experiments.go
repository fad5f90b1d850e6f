package main

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"origin2000/internal/core"
	"origin2000/internal/experiments"
	"origin2000/internal/trace"
)

// experimentsMain is origin experiments: it regenerates the paper's tables
// and figures on the simulated machine. -run selects one experiment (see
// experiments.Names); -scale divides problem sizes (default 8);
// -cachescale divides the 4MB cache by the same factor unless set; -full
// runs the paper's input sizes. -check attaches the online
// coherence-invariant checker to every machine, so any protocol violation
// fails the run with the checker's report; -artifacts records ring traces
// and writes the failing run's trace to DIR.
func experimentsMain(args []string, stdout, stderr io.Writer) int {
	o, fs := newFlagSet("experiments", stderr)
	if !o.parse(fs, args) {
		return 2
	}
	if names := experiments.Names(); !slices.Contains(names, o.experiment) {
		fmt.Fprintf(stderr, "origin experiments: -run %q: want one of %s\n", o.experiment, strings.Join(names, ", "))
		return 2
	}
	s := experiments.Scale{Div: o.scale, CacheDiv: o.cachescale, Steps: o.steps, Seed: int64(o.seed),
		Procs: o.counts, Check: o.check}
	if s.CacheDiv == 0 {
		s.CacheDiv = s.Div
	}
	if o.full {
		s.Div, s.CacheDiv = 1, 1
	}
	fmt.Fprintf(stdout, "origin2000 experiments: %s (size scale 1/%d, cache scale 1/%d)\n\n",
		o.experiment, s.Div, s.CacheDiv)
	err := capture(s, o.artifacts, stderr, func(s experiments.Scale) error {
		return experiments.Run(o.experiment, experiments.NewSession(s), stdout)
	})
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	if o.check {
		fmt.Fprintf(stdout, "checked %s: zero coherence violations\n", o.experiment)
	}
	return 0
}

// capture runs fn at scale s. With an artifacts directory every machine
// records a ring trace, and when fn fails the failing run's trace is
// written there as Perfetto JSON, and its path to stderr: a failed run
// aborts its experiment, so it is the last machine OnMachine saw. A hook
// already on s still sees every machine.
func capture(s experiments.Scale, artifacts string, stderr io.Writer, fn func(experiments.Scale) error) error {
	var label string
	var last *core.Machine
	if artifacts != "" {
		s.Trace = trace.Options{Enabled: true}
		keep := s.OnMachine
		s.OnMachine = func(l string, m *core.Machine) {
			label, last = l, m
			if keep != nil {
				keep(l, m)
			}
		}
	}
	err := fn(s)
	if err != nil && last != nil {
		if path, werr := trace.WriteArtifact(artifacts, label, last.Tracer()); werr != nil {
			fmt.Fprintln(stderr, "trace artifact:", werr)
		} else {
			fmt.Fprintln(stderr, "failing run's trace:", path)
		}
	}
	return err
}
