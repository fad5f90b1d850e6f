// Command origin-explain runs one application — or the whole study — with
// the per-block sharing-pattern classifier enabled and prints a "why
// doesn't it scale" report: the sharing-pattern census (read-only, private,
// migratory, producer-consumer, widely-shared), the exact miss-cause
// decomposition with coherence misses split into true vs false sharing,
// the false-sharing suspects with padding/placement advice, the home-node
// remote-miss distribution with its hotspot index, and a one-line verdict
// naming the dominant scaling limiter.
//
// Usage:
//
//	origin-explain -app Ocean [-procs 32] [-size 0] [-variant ""] [-scale 8]
//	               [-steps N] [-seed 42] [-prefetch] [-scenario mesh]
//	               [-top 10] [-json FILE]
//	origin-explain -all [-procs 32] ...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"origin2000/cmd/internal/runflags"
	"origin2000/internal/core"
	"origin2000/internal/experiments"
	"origin2000/internal/perf"
	"origin2000/internal/sharing"
	"origin2000/internal/workload"
)

func main() {
	rf := runflags.Register(flag.CommandLine, "Ocean", 32)
	var (
		all     = flag.Bool("all", false, "explain every application in the study")
		top     = flag.Int("top", 10, "rows per report table")
		jsonOut = flag.String("json", "", "also write the reports as JSON (app name -> report)")
	)
	flag.Parse()

	if *all {
		for _, app := range experiments.Apps() {
			if err := runflags.Variant(app, rf.Variant); err != nil {
				fmt.Fprintln(os.Stderr, "origin-explain: -variant:", err)
				os.Exit(2)
			}
		}
	}
	run, err := rf.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "origin-explain:", err)
		os.Exit(2)
	}
	apps := []workload.App{run.App}
	if *all {
		apps = experiments.Apps()
	}
	if spec := run.Scale.Scenario; !spec.IsDefault() {
		fmt.Printf("scenario %s [%s]: %s\n\n", spec.Name, spec.Hash(), spec.Describe())
	}
	reports := make(map[string]*sharing.Report, len(apps))
	for _, app := range apps {
		r, elapsed, err := explainOne(run.With(app))
		if err != nil {
			fmt.Fprintf(os.Stderr, "origin-explain: %s: %v\n", app.Name(), err)
			os.Exit(1)
		}
		reports[app.Name()] = r
		printReport(os.Stdout, app.Name(), run.Procs, run.Scale.Div, elapsed, r, *top)
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err == nil {
			enc := json.NewEncoder(f)
			enc.SetIndent("", " ")
			err = enc.Encode(reports)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "origin-explain:", err)
			os.Exit(1)
		}
	}
}

// explainOne executes run with the sharing classifier on and returns its
// report (top tables unbounded; printing applies the display cut).
func explainOne(run runflags.Run) (*sharing.Report, float64, error) {
	cfg := run.Scale.Machine(run.Procs)
	cfg.Sharing.Enabled = true
	m := core.New(cfg)
	if err := run.App.Run(m, run.Params); err != nil {
		return nil, 0, err
	}
	return m.SharingReport(0), m.Elapsed().Milliseconds(), nil
}

// printReport renders one application's diagnosis.
func printReport(w io.Writer, app string, procs, scale int, elapsedMS float64, r *sharing.Report, top int) {
	fmt.Fprintf(w, "== %s at %d processors (scale 1/%d): %.3f ms simulated ==\n",
		app, procs, scale, elapsedMS)
	fmt.Fprintf(w, "%d blocks touched; misses local=%d remote-clean=%d remote-dirty=%d upgrades=%d\n",
		r.Blocks, r.Misses[0], r.Misses[1], r.Misses[2], r.Misses[3])

	section := func(title string, rows [][]string) {
		if len(rows) <= 1 {
			return
		}
		fmt.Fprintf(w, "\n%s\n%s", title, perf.Table(rows))
	}
	section("Sharing patterns", r.PatternRows())
	section("Miss causes (coherence split exactly)", r.SplitRows())
	section("Hottest blocks", r.TopBlockRows(top))
	section("False-sharing suspects", r.SuspectRows(top))
	section("Remote misses by home node", r.NodeRows())
	section("Hottest pages", r.PageRows(top))
	for _, b := range r.Suspects {
		if b.Advice != "" {
			fmt.Fprintf(w, "\nadvice for block %#x: %s\n", b.Block, b.Advice)
			break
		}
	}
	fmt.Fprintf(w, "\nhome imbalance index: %.2f (1.0 = balanced)\n", r.Imbalance)
	fmt.Fprintf(w, "verdict: %s\n\n", r.Verdict)
}
