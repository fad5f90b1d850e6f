// Command origin-diff attributes the virtual-time difference between two
// runs: it aligns them by phase epochs (barrier releases) and decomposes the
// wall-clock delta into busy/memory/sync components — exactly, the
// component deltas sum to the measured delta — then localizes it to the top
// moving pages and synchronization objects.
//
// Each side is either a saved run artifact (a JSON file produced by
// -save-a/-save-b or by origin-dash) or a live run spec:
//
//	origin-diff -app FFT -procs 32 \
//	    -a placement=ft -b placement=rr -save-b rr.json
//	origin-diff -a first.json -b second.json
//	origin-diff -app Ocean -procs 32 -critpath -a placement=ft -b placement=rr
//
// -critpath additionally extracts each side's critical path — the longest
// dependency chain bounding elapsed virtual time — and decomposes it
// exactly (busy / memory / queueing / sync / release, residual zero).
//
// Run specs are comma-separated key[=value] pairs: placement=ft|rr,
// migrate=<threshold>, ppn=<n>, procs=<n>, variant=<v>, prefetch,
// barrier=tournament|central|fetchop, lock=llsc|fetchop|array.
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
	"origin2000/internal/mempolicy"
	"origin2000/internal/metrics"
	"origin2000/internal/perf"
	"origin2000/internal/sim"
	"origin2000/internal/synchro"
	"origin2000/internal/workload"
)

func main() {
	var (
		appName  = flag.String("app", "FFT", "application for live run specs")
		procs    = flag.Int("procs", 32, "processor count for live run specs")
		size     = flag.Int("size", 0, "problem size in app units (0 = basic size)")
		scale    = flag.Int("scale", 8, "divide problem sizes and cache by this factor")
		steps    = flag.Int("steps", 0, "timesteps/frames (0 = app default)")
		seed     = flag.Int64("seed", 42, "input seed")
		interval = flag.Int64("interval", 0, "sampling interval in microseconds (0 = default)")
		top      = flag.Int("top", 8, "rows in the epoch/page/sync tables")
		sideA    = flag.String("a", "placement=ft", "side A: artifact JSON path or run spec")
		sideB    = flag.String("b", "placement=rr", "side B: artifact JSON path or run spec")
		saveA    = flag.String("save-a", "", "write side A's artifact JSON here")
		saveB    = flag.String("save-b", "", "write side B's artifact JSON here")
		critF    = flag.Bool("critpath", false, "analyze each side's critical path: exact decomposition of elapsed time")
	)
	flag.Parse()

	if err := errors.Join(
		runflags.AtLeast("procs", *procs, 1),
		runflags.AtLeast("scale", *scale, 1),
		runflags.AtLeast("size", *size, 0),
		runflags.AtLeast("steps", *steps, 0),
	); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	base := runBase{
		appName: *appName, procs: *procs, size: *size, scale: *scale,
		steps: *steps, seed: *seed, interval: sim.Time(*interval) * sim.Microsecond,
		critpath: *critF,
	}
	a, err := resolveSide(*sideA, base)
	if err != nil {
		fatal("side A: %v", err)
	}
	b, err := resolveSide(*sideB, base)
	if err != nil {
		fatal("side B: %v", err)
	}
	if *saveA != "" {
		if err := a.WriteFile(*saveA); err != nil {
			fatal("save-a: %v", err)
		}
	}
	if *saveB != "" {
		if err := b.WriteFile(*saveB); err != nil {
			fatal("save-b: %v", err)
		}
	}

	r := metrics.Diff(a, b)
	fmt.Printf("A: %s  (%s procs=%d size=%d)  elapsed %.3f ms\n",
		r.LabelA, a.App, a.Procs, a.Size, r.ElapsedA.Milliseconds())
	fmt.Printf("B: %s  (%s procs=%d size=%d)  elapsed %.3f ms\n",
		r.LabelB, b.App, b.Procs, b.Size, r.ElapsedB.Milliseconds())
	fmt.Printf("delta: %+.3f ms  (critical proc %d vs %d)\n\n",
		r.Delta.Milliseconds(), r.CriticalA, r.CriticalB)
	fmt.Println(perf.Table(r.ComponentRows()))
	fmt.Println(perf.Table(r.SubMemoryRows()))
	fmt.Println(perf.Table(r.SubSyncRows()))
	if len(r.Epochs) > 0 {
		fmt.Println(perf.Table(r.EpochRows(*top)))
	} else if r.EpochNote != "" {
		fmt.Printf("epochs: %s\n\n", r.EpochNote)
	}
	if len(r.Pages) > 0 {
		fmt.Println(perf.Table(r.PageRows(*top)))
	}
	if len(r.Syncs) > 0 {
		fmt.Println(perf.Table(r.SyncRows(*top)))
	}
	if len(r.Sharing) > 0 {
		fmt.Println(perf.Table(r.SharingRows()))
	}
	if r.SharingNote != "" {
		fmt.Printf("sharing: %s\n\n", r.SharingNote)
	}
	if *critF {
		printCritPath("A", r.LabelA, a, *top)
		printCritPath("B", r.LabelB, b, *top)
	}
}

// printCritPath analyzes and prints one side's critical path. Artifacts
// from runs without CritPath enabled get a note instead of tables (old
// saved artifacts stay usable).
func printCritPath(side, label string, a metrics.Artifact, top int) {
	p, err := metrics.CritPath(&a)
	if err != nil {
		fmt.Printf("critical path %s: %v\n\n", side, err)
		return
	}
	fmt.Printf("critical path %s: %s — %s-bound (%d segments, elapsed %.3f ms)\n\n",
		side, label, p.Dominant(), len(p.Segments), p.Elapsed.Milliseconds())
	fmt.Println(perf.Table(p.ComponentRows()))
	fmt.Println(perf.Table(p.SegmentRows(top)))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// runBase holds the flags shared by both sides' live runs.
type runBase struct {
	appName  string
	procs    int
	size     int
	scale    int
	steps    int
	seed     int64
	interval sim.Time
	critpath bool
}

// resolveSide loads an artifact file if arg names one, otherwise runs the
// spec live.
func resolveSide(arg string, base runBase) (metrics.Artifact, error) {
	if st, err := os.Stat(arg); err == nil && !st.IsDir() {
		return metrics.ReadArtifact(arg)
	}
	if strings.HasSuffix(arg, ".json") {
		return metrics.Artifact{}, fmt.Errorf("artifact %s not found", arg)
	}
	return runSpec(arg, base)
}

// runSpec executes one live run described by a spec string, with the
// sampler and tracer on so the artifact carries series and attribution.
func runSpec(spec string, base runBase) (metrics.Artifact, error) {
	app := experiments.AppByName(base.appName)
	if app == nil {
		return metrics.Artifact{}, fmt.Errorf("unknown app %q", base.appName)
	}
	s := experiments.Scale{Div: base.scale, CacheDiv: base.scale, Steps: base.steps, Seed: base.seed}
	s.Metrics = metrics.Options{Enabled: true, Interval: base.interval}
	s.Trace.Enabled = true
	s.CritPath = base.critpath
	// Metrics already pin the run to one worker; the sharing classifier
	// rides along so the diff can attribute deltas to pattern shifts.
	s.Sharing = true

	paperSize := base.size
	if paperSize == 0 {
		paperSize = app.BasicSize()
	}
	params := s.Params(app, paperSize, "")
	cfg := s.Machine(base.procs)
	if err := applySpec(spec, &cfg, &params); err != nil {
		return metrics.Artifact{}, err
	}

	var m *core.Machine
	s.OnMachine = func(_ string, mm *core.Machine) { m = mm }
	if _, err := s.RunConfig(app, cfg, params); err != nil {
		return metrics.Artifact{}, err
	}
	return experiments.BuildArtifact(spec, app, params, m), nil
}

// applySpec parses "key=value,key,..." into config and params overrides.
func applySpec(spec string, cfg *core.Config, params *workload.Params) error {
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
		case "migrate":
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("migrate=%q: %v", val, err)
			}
			cfg.MigrationThreshold = n
		case "ppn":
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("ppn=%q: %v", val, err)
			}
			cfg.ProcsPerNode = n
		case "procs":
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("procs=%q: %v", val, err)
			}
			cfg.Procs = n
		case "variant":
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
