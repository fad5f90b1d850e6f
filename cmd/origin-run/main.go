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
//
// -trace records every event of the run, writes it as Perfetto JSON (open
// it at ui.perfetto.dev) and prints the attribution tables: per-page and
// per-block sharing heat, synchronization waits, latency by class,
// queueing by resource, and the top-10 pages' share of remote misses.
// -checkpoint-every writes an originckpt/v2 checkpoint — the run's header
// and a digest of every section of the machine's state — at each quiescent
// window boundary on the given virtual-time grid. -resume replays the run
// deterministically to the checkpoint's quiescent point, proves the live
// state digests to the recorded values, and continues — producing output
// identical to the uninterrupted run. See DESIGN.md §13.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes its report to stdout and its
// diagnostics to stderr, and returns the exit code (2 for a bad flag).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("origin-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rf := runflags.Register(fs, "FFT", 64)
	var (
		list      = fs.Bool("list", false, "list applications and variants")
		breakdown = fs.Bool("breakdown", false, "print the per-processor breakdown figure")
		arrays    = fs.Bool("arrays", false, "attribute misses, upgrades and their stall to named allocations (turns the tracer on; the tooling the paper wished the Origin had)")
		phases    = fs.Bool("phases", false, "print the per-phase time breakdown (instrumented apps)")
		ppn       = fs.Int("ppn", 2, "processors per node (Section 7.2)")
		mapping   = fs.String("mapping", "linear", "process mapping: linear, random, gray, split")
		traceOut  = fs.String("trace", "", "trace every event of the run, write Perfetto JSON here and print the attribution tables")
		hostprofF = fs.String("hostprof", "", "profile the engine's host time and write a Perfetto timeline here (parallel engine; schedule-neutral)")
		engine    = fs.String("engine", "serial", "execution engine: serial, or parallel (bit-identical; measured slower than serial)")
		workers   = fs.Int("workers", 0, "host workers for -engine=parallel (0 = GOMAXPROCS)")
		ckptEvery = fs.String("checkpoint-every", "", "write an originckpt checkpoint every virtual duration (e.g. 1ms, 100us)")
		ckptDir   = fs.String("checkpoint-dir", "checkpoints", "directory for -checkpoint-every checkpoint files")
		resumeF   = fs.String("resume", "", "resume from an originckpt file: replay to its quiescent point, prove state equality, continue")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range experiments.Apps() {
			fmt.Fprintf(stdout, "%-16s unit=%-12s basic=%-8d variants=%q\n",
				a.Name(), a.Unit(), a.BasicSize(), a.Variants())
		}
		return 0
	}
	var every sim.Time
	if *ckptEvery != "" {
		d, err := time.ParseDuration(*ckptEvery)
		if err != nil || d <= 0 {
			fmt.Fprintf(stderr, "bad -checkpoint-every %q (want a positive Go duration like 1ms)\n", *ckptEvery)
			return 2
		}
		every = sim.Time(d.Nanoseconds()) * sim.Nanosecond
	}
	if err := checkEngine(*engine, *workers); err != nil {
		fmt.Fprintln(stderr, "origin-run:", err)
		return 2
	}
	if *resumeF != "" {
		return runResume(stdout, stderr, *resumeF, rf.Scenario, *engine, *workers, every, *ckptDir)
	}
	rs, err := rf.Resolve()
	if err == nil {
		err = runflags.AtLeast("ppn", *ppn, 1)
	}
	if err != nil {
		fmt.Fprintln(stderr, "origin-run:", err)
		return 2
	}
	app, procs, params := rs.App, rs.Procs, rs.Params
	rs.Scale.Engine, rs.Scale.Workers = *engine, *workers
	se := experiments.NewSession(rs.Scale)

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
		fmt.Fprintf(stderr, "unknown mapping %q\n", *mapping)
		return 2
	}

	seq, err := se.Sequential(app, rs.PaperSize)
	if err != nil {
		fmt.Fprintln(stderr, "sequential run:", err)
		return 1
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
			fmt.Fprintln(stderr, "checkpoint dir:", err)
			return 1
		}
		cfg.Checkpoint.Every = every
		cfg.Checkpoint.Dir = *ckptDir
		cfg.Checkpoint.Spec = se.Scale.RunSpec(app, params)
	}
	m := core.New(cfg)
	if err := app.Run(m, params); err != nil {
		fmt.Fprintln(stderr, "parallel run:", err)
		return 1
	}
	code := 0
	r := m.Result()
	avg := r.Average()
	busy, mem, sync := avg.Fractions()
	fmt.Fprintf(stdout, "%s size=%d variant=%q procs=%d (scale 1/%d)\n",
		app.Name(), params.Size, params.Variant, procs, se.Scale.Div)
	if spec := se.Scale.Scenario; !spec.IsDefault() {
		fmt.Fprintf(stdout, "scenario:   %s [%s]  (%s)\n", spec.Name, spec.Hash(), spec.Describe())
	}
	fmt.Fprintf(stdout, "sequential: %10.3f ms\n", seq.Milliseconds())
	fmt.Fprintf(stdout, "parallel:   %10.3f ms   speedup %.1f   efficiency %.1f%%\n",
		m.Elapsed().Milliseconds(),
		perf.Speedup(seq, m.Elapsed()),
		100*perf.Efficiency(seq, m.Elapsed(), procs))
	fmt.Fprintf(stdout, "breakdown:  busy %.1f%%  memory %.1f%%  sync %.1f%%\n", 100*busy, 100*mem, 100*sync)
	c := r.Counters
	fmt.Fprintf(stdout, "misses:     local %d  remote-clean %d  remote-dirty %d  (hits %d)\n",
		c.LocalMisses, c.RemoteClean, c.RemoteDirty, c.Hits)
	fmt.Fprintf(stdout, "traffic:    invalidations %d  writebacks %d  prefetches %d  fetch&ops %d\n",
		c.Invalidations, c.Writebacks, c.Prefetches, c.FetchOps)
	fmt.Fprintf(stdout, "contention: hub queueing %.3f ms  memory queueing %.3f ms\n",
		r.HubQueued.Milliseconds(), r.MemQueued.Milliseconds())
	if every > 0 {
		if n := len(m.Checkpoints()); n > 0 {
			fmt.Fprintf(stdout, "checkpoints: %d files -> %s (resume with -resume <file>)\n", n, *ckptDir)
		} else {
			fmt.Fprintf(stderr, "origin-run: -checkpoint-every %v captured no checkpoint: %s\n", every, noCapture(m, every))
			code = 1
		}
	}
	if node, q := r.HottestHub(); node >= 0 && q > 0 {
		fmt.Fprintf(stdout, "            hottest hub: node %d (%.3f ms queued)\n", node, q.Milliseconds())
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
			fmt.Fprintln(stderr, "trace export:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace:      %d events -> %s (open at ui.perfetto.dev)\n",
			tr.EventsRecorded(), *traceOut)
		fmt.Fprintf(stdout, "            top-10 pages hold %.1f%% of remote misses\n", 100*tr.RemoteMissShare(10))
		section(stdout, "Per-page sharing heat (worst first)", tr.PageReport(10))
		section(stdout, "Per-block sharing heat (worst first)", tr.BlockReport(10))
		section(stdout, "Synchronization wait ranking", tr.SyncReport(10))
		section(stdout, "Access latency by class", tr.LatencyReport())
		section(stdout, "Queueing delay by resource", tr.QueueReport())
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
			fmt.Fprintln(stderr, "hostprof export:", err)
			return 1
		}
		rep := hp.Report()
		fmt.Fprintf(stdout, "hostprof:   host timeline -> %s (open at ui.perfetto.dev)\n", *hostprofF)
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, perf.Table(rep.Rows()))
		fmt.Fprintln(stdout, perf.Table(rep.LaneRows()))
		fmt.Fprintln(stdout, perf.Table(rep.SummaryRows()))
	}
	if *breakdown {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, perf.Continuum(r.PerProc, 64, 12))
	}
	if *arrays {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, perf.Table(m.ArrayReport()))
	}
	if *phases {
		ph := m.PhaseBreakdowns()
		if len(ph) == 0 {
			fmt.Fprintln(stdout)
			fmt.Fprintln(stdout, "(no phase labels: this application is not phase-instrumented)")
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
			fmt.Fprintln(stdout)
			fmt.Fprintln(stdout, perf.Table(rows))
		}
	}
	return code
}

// checkEngine refuses an -engine other than serial or parallel and a
// negative -workers. The run and resume paths both take these flags.
func checkEngine(engine string, workers int) error {
	if engine != "serial" && engine != "parallel" {
		return fmt.Errorf("-engine %q: want serial or parallel", engine)
	}
	return runflags.AtLeast("workers", workers, 0)
}

// noCapture explains why a run checkpointed every `every` captured
// nothing. Captures happen at quiescent points, which are round opens. A
// machine whose processors all sit on one router has one shard, so the
// engine runs ahead from its first round, at time 0, and opens no other.
func noCapture(m *core.Machine, every sim.Time) string {
	if m.Fabric().NumRouters() == 1 {
		return fmt.Sprintf("all %d processors sit on one router, so the machine has one shard and no quiescent point after its first round", m.NumProcs())
	}
	if every > m.Elapsed() {
		return fmt.Sprintf("the grid step is longer than the run (%v)", m.Elapsed())
	}
	return fmt.Sprintf("no quiescent point fell on the grid before the run ended at %v", m.Elapsed())
}

// section prints a titled attribution table, skipping one with no rows.
func section(w io.Writer, title string, rows [][]string) {
	if len(rows) <= 1 {
		return
	}
	fmt.Fprintf(w, "\n%s\n%s", title, perf.Table(rows))
}

// summarize prints the post-run breakdown shared by the resume path.
func summarize(w io.Writer, m *core.Machine) {
	r := m.Result()
	avg := r.Average()
	busy, mem, sync := avg.Fractions()
	fmt.Fprintf(w, "parallel:   %10.3f ms\n", m.Elapsed().Milliseconds())
	fmt.Fprintf(w, "breakdown:  busy %.1f%%  memory %.1f%%  sync %.1f%%\n", 100*busy, 100*mem, 100*sync)
	c := r.Counters
	fmt.Fprintf(w, "misses:     local %d  remote-clean %d  remote-dirty %d  (hits %d)\n",
		c.LocalMisses, c.RemoteClean, c.RemoteDirty, c.Hits)
	fmt.Fprintf(w, "traffic:    invalidations %d  writebacks %d  prefetches %d  fetch&ops %d\n",
		c.Invalidations, c.Writebacks, c.Prefetches, c.FetchOps)
}

// runResume implements -resume: decode the checkpoint, rebuild the exact
// machine configuration and workload parameters its header records, replay
// to the recorded quiescent point under the requested engine, prove state
// equality, and run to completion. The window width always comes from the
// checkpoint's configuration (the quiescent-sequence numbering depends on
// it); the engine and worker count may be changed freely — results are
// bit-identical.
func runResume(stdout, stderr io.Writer, path, scenarioArg, engine string, workers int, every sim.Time, ckptDir string) int {
	sn, err := snapshot.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "resume:", err)
		return 1
	}
	spec := sn.Header.Spec
	app := experiments.AppByName(spec.App)
	if app == nil {
		fmt.Fprintf(stderr, "resume: checkpoint names unknown app %q\n", spec.App)
		return 1
	}
	params := experiments.SpecParams(spec)
	var cfg core.Config
	if err := json.Unmarshal(sn.Header.Config, &cfg); err != nil {
		fmt.Fprintln(stderr, "resume: checkpoint header config:", err)
		return 1
	}
	cfg.Checkpoint = core.CheckpointConfig{Spec: spec}
	cfg.Engine = engine
	cfg.Workers = workers
	// An explicit -scenario on resume overrides the machine recorded in the
	// header; ValidateResume refuses if it doesn't match the checkpoint's.
	if scenarioArg != "" {
		sc, err := scenario.Load(scenarioArg)
		if err != nil {
			fmt.Fprintln(stderr, "resume:", err)
			return 1
		}
		cfg.Scenario = &sc
	}
	if every > 0 {
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "checkpoint dir:", err)
			return 1
		}
		cfg.Checkpoint.Every = every
		cfg.Checkpoint.Dir = ckptDir
	}
	s := experiments.Scale{Div: spec.Div, CacheDiv: spec.CacheDiv, Steps: spec.Steps, Seed: spec.Seed,
		Engine: engine, Workers: workers}
	var m *core.Machine
	s.OnMachine = func(_ string, mm *core.Machine) { m = mm }
	fmt.Fprintf(stdout, "resuming %s size=%d procs=%d from %s (quiescent seq %d, t=%v)\n",
		spec.App, spec.Size, sn.Header.Procs, path, sn.Header.QuiesSeq, sn.Header.VirtualTime)
	if _, err := s.ResumeConfig(app, cfg, params, sn); err != nil {
		fmt.Fprintln(stderr, "resume:", err)
		return 1
	}
	fmt.Fprintf(stdout, "state proof: live replay matches recorded state at seq %d — resumed\n", sn.Header.QuiesSeq)
	summarize(stdout, m)
	if every > 0 {
		fmt.Fprintf(stdout, "checkpoints: %d files -> %s\n", len(m.Checkpoints()), ckptDir)
	}
	return 0
}
