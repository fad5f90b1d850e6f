package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"origin2000/internal/core"
	"origin2000/internal/experiments"
	"origin2000/internal/mempolicy"
	"origin2000/internal/metrics"
	"origin2000/internal/perf"
	"origin2000/internal/sim"
	"origin2000/internal/synchro"
	"origin2000/internal/workload"
)

// diffMain is origin diff: it attributes the virtual-time difference
// between two runs. It aligns them by phase epochs (barrier releases) and
// decomposes the wall-clock delta into busy/memory/sync components —
// exactly, the component deltas sum to the measured delta — then
// localizes it to the top moving pages and synchronization objects.
//
// Each side is either a saved run artifact (a JSON file written by
// -save-a/-save-b or by origin run -record) or a live run spec:
//
//	origin diff -app FFT -procs 32 -a placement=ft -b placement=rr -save-b rr.json
//	origin diff -a first.json -b second.json
//	origin diff -app Ocean -procs 32 -critpath -a placement=ft -b placement=rr
//
// -critpath additionally extracts each side's critical path — the longest
// dependency chain bounding elapsed virtual time — and decomposes it
// exactly (busy / memory / queueing / sync / release, residual zero).
//
// Run specs are comma-separated key[=value] pairs: placement=ft|rr,
// migrate=<threshold>, ppn=<n>, procs=<n>, variant=<v>, prefetch,
// barrier=tournament|central|fetchop, lock=llsc|fetchop|array.
func diffMain(args []string, stdout, stderr io.Writer) int {
	o, fs := newFlagSet("diff", stderr)
	if !o.parse(fs, args) {
		return 2
	}
	var sides [2]metrics.Artifact
	for i, arg := range []string{o.a, o.b} {
		a, err := resolveSide(arg, o)
		if err != nil {
			fmt.Fprintf(stderr, "side %c: %v\n", 'A'+i, err)
			if errors.As(err, new(specError)) {
				return 2
			}
			return 1
		}
		sides[i] = a
	}
	for i, path := range []string{o.saveA, o.saveB} {
		if path == "" {
			continue
		}
		if err := sides[i].WriteFile(path); err != nil {
			fmt.Fprintf(stderr, "save-%c: %v\n", 'a'+i, err)
			return 1
		}
	}

	a, b := sides[0], sides[1]
	r := metrics.Diff(a, b)
	fmt.Fprintf(stdout, "A: %s  (%s procs=%d size=%d)  elapsed %.3f ms\n",
		r.LabelA, a.App, a.Procs, a.Size, r.ElapsedA.Milliseconds())
	fmt.Fprintf(stdout, "B: %s  (%s procs=%d size=%d)  elapsed %.3f ms\n",
		r.LabelB, b.App, b.Procs, b.Size, r.ElapsedB.Milliseconds())
	fmt.Fprintf(stdout, "delta: %+.3f ms  (critical proc %d vs %d)\n\n",
		r.Delta.Milliseconds(), r.CriticalA, r.CriticalB)
	fmt.Fprintln(stdout, perf.Table(r.ComponentRows()))
	fmt.Fprintln(stdout, perf.Table(r.SubMemoryRows()))
	fmt.Fprintln(stdout, perf.Table(r.SubSyncRows()))
	if len(r.Epochs) > 0 {
		fmt.Fprintln(stdout, perf.Table(r.EpochRows(o.top)))
	} else if r.EpochNote != "" {
		fmt.Fprintf(stdout, "epochs: %s\n\n", r.EpochNote)
	}
	if len(r.Pages) > 0 {
		fmt.Fprintln(stdout, perf.Table(r.PageRows(o.top)))
	}
	if len(r.Syncs) > 0 {
		fmt.Fprintln(stdout, perf.Table(r.SyncRows(o.top)))
	}
	if len(r.Sharing) > 0 {
		fmt.Fprintln(stdout, perf.Table(r.SharingRows()))
	}
	if r.SharingNote != "" {
		fmt.Fprintf(stdout, "sharing: %s\n\n", r.SharingNote)
	}
	if o.critpath {
		printCritPath(stdout, "A", r.LabelA, a, o.top)
		printCritPath(stdout, "B", r.LabelB, b, o.top)
	}
	return 0
}

// printCritPath analyzes and prints one side's critical path. Artifacts
// from runs without CritPath enabled get a note instead of tables (old
// saved artifacts stay usable).
func printCritPath(w io.Writer, side, label string, a metrics.Artifact, top int) {
	p, err := metrics.CritPath(&a)
	if err != nil {
		fmt.Fprintf(w, "critical path %s: %v\n\n", side, err)
		return
	}
	fmt.Fprintf(w, "critical path %s: %s — %s-bound (%d segments, elapsed %.3f ms)\n\n",
		side, label, p.Dominant(), len(p.Segments), p.Elapsed.Milliseconds())
	fmt.Fprintln(w, perf.Table(p.ComponentRows()))
	fmt.Fprintln(w, perf.Table(p.SegmentRows(top)))
}

// specError marks a run spec that does not parse. It exits 2, like the
// flag errors; a run that fails exits 1.
type specError struct{ error }

func (e specError) Unwrap() error { return e.error }

// resolveSide loads an artifact file if arg names one, otherwise runs the
// spec live.
func resolveSide(arg string, o *opts) (metrics.Artifact, error) {
	if st, err := os.Stat(arg); err == nil && !st.IsDir() {
		return metrics.ReadArtifact(arg)
	}
	if strings.HasSuffix(arg, ".json") {
		return metrics.Artifact{}, fmt.Errorf("artifact %s not found", arg)
	}
	return runSpec(arg, o)
}

// runSpec executes one live run of -app at -procs described by a spec
// string, with the sampler and tracer on so the artifact carries series
// and attribution.
func runSpec(spec string, o *opts) (metrics.Artifact, error) {
	app := o.application
	s := o.scaleOn(nil)
	s.Metrics = metrics.Options{Enabled: true, Interval: sim.Time(o.interval) * sim.Microsecond}
	s.Trace.Enabled = true
	s.CritPath = o.critpath
	// Metrics already pin the run to one worker; the sharing classifier
	// rides along so the diff can attribute deltas to pattern shifts.
	s.Sharing = true

	_, params := o.params(s, app)
	cfg := s.Machine(o.counts[0])
	if err := applySpec(spec, app, &cfg, &params); err != nil {
		return metrics.Artifact{}, specError{err}
	}
	if err := cfg.Validate(); err != nil {
		return metrics.Artifact{}, specError{fmt.Errorf("procs=%d: %w", cfg.Procs, err)}
	}

	var m *core.Machine
	s.OnMachine = func(_ string, mm *core.Machine) { m = mm }
	if _, err := s.RunConfig(app, cfg, params); err != nil {
		return metrics.Artifact{}, err
	}
	return experiments.BuildArtifact(spec, app, params, m), nil
}

// applySpec parses "key=value,key,..." into config and params overrides
// for a run of app.
func applySpec(spec string, app workload.App, cfg *core.Config, params *workload.Params) error {
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, _ := strings.Cut(kv, "=")
		switch key {
		case "placement":
			switch val {
			case "ft", "first-touch":
				cfg.Placement = mempolicy.FirstTouch
				cfg.IgnorePlacement = false
			case "rr", "round-robin":
				cfg.Placement = mempolicy.RoundRobin
				cfg.IgnorePlacement = true
			default:
				return fmt.Errorf("placement=%q (want ft or rr)", val)
			}
		case "migrate", "ppn", "procs":
			dst, floor := &cfg.Procs, 1
			switch key {
			case "migrate":
				dst, floor = &cfg.MigrationThreshold, 0 // 0 turns migration off
			case "ppn":
				dst = &cfg.ProcsPerNode
			}
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("%s=%q: %v", key, val, err)
			}
			if n < floor {
				return fmt.Errorf("%s=%d: must be at least %d", key, n, floor)
			}
			*dst = n
		case "variant":
			if err := checkVariant(app, val); err != nil {
				return fmt.Errorf("variant=%q: %w", val, err)
			}
			params.Variant = val
		case "prefetch":
			params.Prefetch = true
		case "barrier":
			switch val {
			case "tournament", "":
				params.Barrier = synchro.BarrierTournament
			case "central", "centralized":
				params.Barrier = synchro.BarrierCentralized
			case "fetchop":
				params.Barrier = synchro.BarrierFetchOp
			default:
				return fmt.Errorf("barrier=%q", val)
			}
		case "lock":
			alg, err := lockAlg(val)
			if err != nil {
				return err
			}
			params.Lock = alg
		default:
			return fmt.Errorf("unknown spec key %q", key)
		}
	}
	return nil
}

func lockAlg(val string) (synchro.LockAlgorithm, error) {
	switch val {
	case "llsc", "ticket", "":
		return synchro.LockTicketLLSC, nil
	case "fetchop":
		return synchro.LockTicketFetchOp, nil
	case "array":
		return synchro.LockArray, nil
	}
	return 0, fmt.Errorf("lock=%q", val)
}
