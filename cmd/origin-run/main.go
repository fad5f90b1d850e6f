// Command origin-run executes one application on the simulated machine and
// prints its speedup and execution-time breakdown.
//
// Usage:
//
//	origin-run -app FFT [-procs 64] [-size 1048576] [-variant ""] [-prefetch]
//	           [-scale 8] [-steps N] [-seed 42] [-scenario mesh] [-breakdown]
//	           [-ppn 2] [-mapping linear|random|gray|split] [-trace run.json]
//	           [-engine serial|parallel] [-workers 0] [-hostprof hostprof.json]
//	           [-checkpoint-every 1ms] [-checkpoint-dir checkpoints]
//	origin-run -resume checkpoints/ckpt-000002.originckpt [-engine parallel]
//	origin-run -bisect checkpoints [-fault-drop-inval N]
//
// -trace records every event of the run, writes it as Perfetto JSON (open
// it at ui.perfetto.dev) and prints the attribution tables: per-page and
// per-block sharing heat, synchronization waits, latency by class,
// queueing by resource, and the top-10 pages' share of remote misses.
// -checkpoint-every captures an originckpt/v1 snapshot of the whole machine
// at each quiescent window boundary on the given virtual-time grid.
// -resume replays the run deterministically to the snapshot's quiescent
// point, proves byte-equality of the live state against the recorded state,
// and continues — producing output identical to the uninterrupted run.
// -bisect audits a directory of checkpoints for coherence corruption,
// binary-searches for the first bad window, and replays it with the online
// checker to pinpoint the fault. See DESIGN.md §13.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"origin2000/cmd/internal/runflags"
	"origin2000/internal/core"
	"origin2000/internal/experiments"
	"origin2000/internal/perf"
	"origin2000/internal/scenario"
	"origin2000/internal/sim"
	"origin2000/internal/snapshot"
	"origin2000/internal/topology"
	"origin2000/internal/trace"
)

func main() {
	rf := runflags.Register(flag.CommandLine, "FFT", 64)
	var (
		list      = flag.Bool("list", false, "list applications and variants")
		breakdown = flag.Bool("breakdown", false, "print the per-processor breakdown figure")
		arrays    = flag.Bool("arrays", false, "attribute misses, upgrades and their stall to named allocations (turns the tracer on; the tooling the paper wished the Origin had)")
		phases    = flag.Bool("phases", false, "print the per-phase time breakdown (instrumented apps)")
		ppn       = flag.Int("ppn", 2, "processors per node (Section 7.2)")
		mapping   = flag.String("mapping", "linear", "process mapping: linear, random, gray, split")
		traceOut  = flag.String("trace", "", "trace every event of the run, write Perfetto JSON here and print the attribution tables")
		hostprofF = flag.String("hostprof", "", "profile the engine's host time and write a Perfetto timeline here (parallel engine; schedule-neutral)")
		engine    = flag.String("engine", "serial", "execution engine: serial, or parallel (bit-identical; measured slower than serial)")
		workers   = flag.Int("workers", 0, "host workers for -engine=parallel (0 = GOMAXPROCS)")
		ckptEvery = flag.String("checkpoint-every", "", "capture an originckpt snapshot every virtual duration (e.g. 1ms, 100us)")
		ckptDir   = flag.String("checkpoint-dir", "checkpoints", "directory for -checkpoint-every snapshot files")
		resumeF   = flag.String("resume", "", "resume from an originckpt file: replay to its quiescent point, prove state equality, continue")
		bisectF   = flag.String("bisect", "", "bisect a directory of checkpoints to the first window that breaks coherence")
		faultDrop = flag.Int("fault-drop-inval", 0, "fault injection: silently drop the Nth invalidation the directory sends (demo for -bisect)")
	)
	flag.Parse()

	if *list {
		for _, a := range experiments.Apps() {
			fmt.Printf("%-16s unit=%-12s basic=%-8d variants=%q\n",
				a.Name(), a.Unit(), a.BasicSize(), a.Variants())
		}
		return
	}
	var every sim.Time
	if *ckptEvery != "" {
		d, err := time.ParseDuration(*ckptEvery)
		if err != nil || d <= 0 {
			fmt.Fprintf(os.Stderr, "bad -checkpoint-every %q (want a positive Go duration like 1ms)\n", *ckptEvery)
			os.Exit(2)
		}
		every = sim.Time(d.Nanoseconds()) * sim.Nanosecond
	}
	if *bisectF != "" {
		runBisect(*bisectF, *faultDrop)
		return
	}
	if *resumeF != "" {
		runResume(*resumeF, rf.Scenario, *engine, *workers, every, *ckptDir)
		return
	}
	run, err := rf.Resolve()
	if err == nil {
		err = runflags.AtLeast("ppn", *ppn, 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "origin-run:", err)
		os.Exit(2)
	}
	if *engine != "serial" && *engine != "parallel" {
		fmt.Fprintf(os.Stderr, "unknown engine %q (serial or parallel)\n", *engine)
		os.Exit(2)
	}
	app, procs, params := run.App, run.Procs, run.Params
	run.Scale.Engine, run.Scale.Workers = *engine, *workers
	se := experiments.NewSession(run.Scale)

	cfg := se.Scale.Machine(procs)
	cfg.ProcsPerNode = *ppn
	switch strings.ToLower(*mapping) {
	case "linear", "":
	case "random":
		cfg.Mapping = topology.Random(procs, rf.Seed)
	case "gray":
		cfg.Mapping = topology.GrayPairs(procs, cfg.ProcsPerNode, core.NodesPerRouter)
	case "split":
		cfg.Mapping = topology.SplitPairs(procs)
	default:
		fmt.Fprintf(os.Stderr, "unknown mapping %q\n", *mapping)
		os.Exit(2)
	}

	seq, err := se.Sequential(app, run.PaperSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sequential run:", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		cfg.Trace = trace.Options{Enabled: true, Lossless: true}
	} else if *arrays {
		// Per-array attribution is folded from the tracer's page heat.
		cfg.Trace.Enabled = true
	}
	if *hostprofF != "" {
		cfg.HostProf = true
	}
	if every > 0 {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint dir:", err)
			os.Exit(1)
		}
		cfg.Checkpoint.Every = every
		cfg.Checkpoint.Dir = *ckptDir
		cfg.Checkpoint.Spec = se.Scale.RunSpec(app, params)
	}
	m := core.New(cfg)
	if *faultDrop > 0 {
		n := 0
		m.FaultDropInvalidation(func(block uint64, proc int) bool {
			n++
			return n == *faultDrop
		})
	}
	if err := app.Run(m, params); err != nil {
		fmt.Fprintln(os.Stderr, "parallel run:", err)
		os.Exit(1)
	}
	r := m.Result()
	avg := r.Average()
	busy, mem, sync := avg.Fractions()
	fmt.Printf("%s size=%d variant=%q procs=%d (scale 1/%d)\n",
		app.Name(), params.Size, params.Variant, procs, se.Scale.Div)
	if spec := se.Scale.Scenario; !spec.IsDefault() {
		fmt.Printf("scenario:   %s [%s]  (%s)\n", spec.Name, spec.Hash(), spec.Describe())
	}
	fmt.Printf("sequential: %10.3f ms\n", seq.Milliseconds())
	fmt.Printf("parallel:   %10.3f ms   speedup %.1f   efficiency %.1f%%\n",
		m.Elapsed().Milliseconds(),
		perf.Speedup(seq, m.Elapsed()),
		100*perf.Efficiency(seq, m.Elapsed(), procs))
	fmt.Printf("breakdown:  busy %.1f%%  memory %.1f%%  sync %.1f%%\n", 100*busy, 100*mem, 100*sync)
	c := r.Counters
	fmt.Printf("misses:     local %d  remote-clean %d  remote-dirty %d  (hits %d)\n",
		c.LocalMisses, c.RemoteClean, c.RemoteDirty, c.Hits)
	fmt.Printf("traffic:    invalidations %d  writebacks %d  prefetches %d  fetch&ops %d\n",
		c.Invalidations, c.Writebacks, c.Prefetches, c.FetchOps)
	fmt.Printf("contention: hub queueing %.3f ms  memory queueing %.3f ms\n",
		r.HubQueued.Milliseconds(), r.MemQueued.Milliseconds())
	if every > 0 {
		fmt.Printf("checkpoints: %d files -> %s (resume with -resume <file>, audit with -bisect %s)\n",
			len(m.Checkpoints()), *ckptDir, *ckptDir)
	}
	if node, q := r.HottestHub(); node >= 0 && q > 0 {
		fmt.Printf("            hottest hub: node %d (%.3f ms queued)\n", node, q.Milliseconds())
	}
	if *traceOut != "" {
		tr := m.Tracer()
		f, err := os.Create(*traceOut)
		if err == nil {
			err = tr.WritePerfetto(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace export:", err)
			os.Exit(1)
		}
		fmt.Printf("trace:      %d events -> %s (open at ui.perfetto.dev)\n",
			tr.EventsRecorded(), *traceOut)
		fmt.Printf("            top-10 pages hold %.1f%% of remote misses\n", 100*tr.RemoteMissShare(10))
		section("Per-page sharing heat (worst first)", tr.PageReport(10))
		section("Per-block sharing heat (worst first)", tr.BlockReport(10))
		section("Synchronization wait ranking", tr.SyncReport(10))
		section("Access latency by class", tr.LatencyReport())
		section("Queueing delay by resource", tr.QueueReport())
	}
	if *hostprofF != "" {
		hp := m.HostProf()
		f, err := os.Create(*hostprofF)
		if err == nil {
			err = hp.WritePerfetto(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hostprof export:", err)
			os.Exit(1)
		}
		rep := hp.Report()
		fmt.Printf("hostprof:   host timeline -> %s (open at ui.perfetto.dev)\n", *hostprofF)
		fmt.Println()
		fmt.Println(perf.Table(rep.Rows()))
		fmt.Println(perf.Table(rep.LaneRows()))
		fmt.Println(perf.Table(rep.SummaryRows()))
	}
	if *breakdown {
		fmt.Println()
		fmt.Println(perf.Continuum(r.PerProc, 64, 12))
	}
	if *arrays {
		fmt.Println()
		fmt.Println(perf.Table(m.ArrayReport()))
	}
	if *phases {
		ph := m.PhaseBreakdowns()
		if len(ph) == 0 {
			fmt.Println()
			fmt.Println("(no phase labels: this application is not phase-instrumented)")
		} else {
			rows := [][]string{{"Phase", "Busy (ms)", "Memory (ms)", "Sync (ms)", "Share"}}
			var total float64
			for _, b := range ph {
				total += float64(b.Total())
			}
			for _, b := range ph {
				rows = append(rows, []string{
					b.Name,
					fmt.Sprintf("%.2f", b.Busy.Milliseconds()),
					fmt.Sprintf("%.2f", b.Memory.Milliseconds()),
					fmt.Sprintf("%.2f", b.Sync.Milliseconds()),
					fmt.Sprintf("%.1f%%", 100*float64(b.Total())/total),
				})
			}
			fmt.Println()
			fmt.Println(perf.Table(rows))
		}
	}
}

// section prints a titled attribution table, skipping one with no rows.
func section(title string, rows [][]string) {
	if len(rows) <= 1 {
		return
	}
	fmt.Printf("\n%s\n%s", title, perf.Table(rows))
}

// summarize prints the post-run breakdown shared by the resume path.
func summarize(m *core.Machine) {
	r := m.Result()
	avg := r.Average()
	busy, mem, sync := avg.Fractions()
	fmt.Printf("parallel:   %10.3f ms\n", m.Elapsed().Milliseconds())
	fmt.Printf("breakdown:  busy %.1f%%  memory %.1f%%  sync %.1f%%\n", 100*busy, 100*mem, 100*sync)
	c := r.Counters
	fmt.Printf("misses:     local %d  remote-clean %d  remote-dirty %d  (hits %d)\n",
		c.LocalMisses, c.RemoteClean, c.RemoteDirty, c.Hits)
	fmt.Printf("traffic:    invalidations %d  writebacks %d  prefetches %d  fetch&ops %d\n",
		c.Invalidations, c.Writebacks, c.Prefetches, c.FetchOps)
}

// runResume implements -resume: decode the snapshot, rebuild the exact
// machine configuration and workload parameters its header records, replay
// to the recorded quiescent point under the requested engine, prove state
// equality, and run to completion. The window width always comes from the
// snapshot's configuration (the quiescent-sequence numbering depends on
// it); the engine and worker count may be changed freely — results are
// bit-identical.
func runResume(path, scenarioArg, engine string, workers int, every sim.Time, ckptDir string) {
	sn, err := snapshot.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "resume:", err)
		os.Exit(1)
	}
	spec := sn.Header.Spec
	app := experiments.AppByName(spec.App)
	if app == nil {
		fmt.Fprintf(os.Stderr, "resume: snapshot names unknown app %q\n", spec.App)
		os.Exit(1)
	}
	params := experiments.SpecParams(spec)
	var cfg core.Config
	if err := json.Unmarshal(sn.Header.Config, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "resume: snapshot header config:", err)
		os.Exit(1)
	}
	cfg.Checkpoint = core.CheckpointConfig{Spec: spec}
	cfg.Engine = engine
	cfg.Workers = workers
	// An explicit -scenario on resume overrides the machine recorded in the
	// header; ValidateResume refuses if it doesn't match the snapshot's.
	if scenarioArg != "" {
		sc, err := scenario.Load(scenarioArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "resume:", err)
			os.Exit(1)
		}
		cfg.Scenario = &sc
	}
	if every > 0 {
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint dir:", err)
			os.Exit(1)
		}
		cfg.Checkpoint.Every = every
		cfg.Checkpoint.Dir = ckptDir
	}
	s := experiments.Scale{Div: spec.Div, CacheDiv: spec.CacheDiv, Steps: spec.Steps, Seed: spec.Seed,
		Engine: engine, Workers: workers}
	var m *core.Machine
	s.OnMachine = func(_ string, mm *core.Machine) { m = mm }
	fmt.Printf("resuming %s size=%d procs=%d from %s (quiescent seq %d, t=%v)\n",
		spec.App, spec.Size, sn.Header.Procs, path, sn.Header.QuiesSeq, sn.Header.VirtualTime)
	if _, err := s.ResumeConfig(app, cfg, params, sn); err != nil {
		fmt.Fprintln(os.Stderr, "resume:", err)
		os.Exit(1)
	}
	fmt.Printf("state proof: live replay matches recorded state at seq %d — resumed\n", sn.Header.QuiesSeq)
	summarize(m)
	if every > 0 {
		fmt.Printf("checkpoints: %d files -> %s\n", len(m.Checkpoints()), ckptDir)
	}
}

// runBisect implements -bisect: read every checkpoint in the directory,
// audit each serialized state for directory/cache disagreement, binary-
// search for the first corrupt one, and replay that window with the online
// coherence checker to pinpoint the fault. Exits 1 when a fault is found
// (so scripts can branch on it), 0 when all checkpoints audit clean.
func runBisect(dir string, faultDrop int) {
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.originckpt"))
	if err != nil || len(files) == 0 {
		fmt.Fprintf(os.Stderr, "bisect: no ckpt-*.originckpt files in %s\n", dir)
		os.Exit(2)
	}
	sort.Strings(files)
	snaps := make([]*snapshot.Snapshot, len(files))
	for i, f := range files {
		if snaps[i], err = snapshot.ReadFile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bisect: %s: %v\n", f, err)
			os.Exit(1)
		}
	}
	spec := snaps[len(snaps)-1].Header.Spec
	app := experiments.AppByName(spec.App)
	if app == nil {
		fmt.Fprintf(os.Stderr, "bisect: snapshots name unknown app %q\n", spec.App)
		os.Exit(1)
	}
	params := experiments.SpecParams(spec)
	s := experiments.Scale{Div: spec.Div, CacheDiv: spec.CacheDiv, Steps: spec.Steps, Seed: spec.Seed}
	if faultDrop > 0 {
		// The confirming replay re-executes the run, so a fault seeded at
		// capture time must be seeded again to reproduce.
		s.OnMachine = func(_ string, m *core.Machine) {
			n := 0
			m.FaultDropInvalidation(func(block uint64, proc int) bool {
				n++
				return n == faultDrop
			})
		}
	}
	fmt.Printf("bisecting %d checkpoints of %s size=%d procs=%d\n",
		len(snaps), spec.App, spec.Size, snaps[len(snaps)-1].Header.Procs)
	rep, err := s.BisectViolation(app, snaps[len(snaps)-1].Header.Procs, params, snaps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bisect:", err)
		os.Exit(1)
	}
	if rep.FirstBad < 0 {
		fmt.Println("all checkpoints audit clean; no coherence fault found")
		return
	}
	fmt.Printf("first corrupt checkpoint: %s\n", files[rep.FirstBad])
	fmt.Printf("fault window: (%v, %v]  (quiescent seq %d..%d)\n",
		rep.WindowStart, rep.WindowEnd, rep.SeqStart, rep.SeqEnd)
	for _, a := range rep.Audit {
		fmt.Printf("  audit:   block %-8d proc %-3d %s\n", a.Block, a.Proc, a.Msg)
	}
	for _, v := range rep.Violations {
		fmt.Printf("  checker: t=%-14v proc %-3d block %-8d %s\n", v.At, v.Proc, v.Block, v.Msg)
	}
	if len(rep.Violations) == 0 {
		fmt.Println("  (checker replay found no violation inside the window; the corruption")
		fmt.Println("   predates detection — inspect the audit findings above)")
	}
	os.Exit(1)
}
