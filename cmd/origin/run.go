package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"origin2000/internal/core"
	"origin2000/internal/experiments"
	"origin2000/internal/perf"
	"origin2000/internal/sharing"
	"origin2000/internal/sim"
	"origin2000/internal/snapshot"
	"origin2000/internal/topology"
	"origin2000/internal/trace"
)

// runMain is origin run: it executes one application on the simulated
// machine and prints its speedup and execution-time breakdown.
//
// -trace records every event of the run, writes it as Perfetto JSON (open
// it at ui.perfetto.dev) and prints the attribution tables: per-page and
// per-block sharing heat, synchronization waits, latency by class,
// queueing by resource, and the top-10 pages' share of remote misses.
// -explain turns the sharing classifier on and prints its diagnosis: the
// sharing-pattern census, the miss causes with coherence misses split into
// true and false sharing, the false-sharing suspects with advice, the
// remote misses by home node, and a verdict naming the scaling limiter.
// -record writes the run's artifact, which origin diff reads as a side.
// -checkpoint-every writes an originckpt/v2 checkpoint — the run's header
// and a digest of every section of the machine's state — at each quiescent
// window boundary on the given virtual-time grid. -resume replays the run
// deterministically to the checkpoint's quiescent point, proves the live
// state digests to the recorded values, and continues — producing output
// identical to the uninterrupted run. See DESIGN.md §13.
func runMain(args []string, stdout, stderr io.Writer) int {
	o, fs := newFlagSet("run", stderr)
	if !o.parse(fs, args) {
		return 2
	}
	every, err := checkRun(o, fs)
	if err != nil {
		fmt.Fprintln(stderr, "origin run:", err)
		return 2
	}
	if o.list {
		for _, a := range experiments.Apps() {
			fmt.Fprintf(stdout, "%-16s unit=%-12s basic=%-8d variants=%q\n",
				a.Name(), a.Unit(), a.BasicSize(), a.Variants())
		}
		return 0
	}
	if o.resume != "" {
		return runResume(stdout, stderr, o, every)
	}
	app, procs := o.application, o.counts[0]
	s := o.scaleOn(&o.specs[0])
	s.Engine, s.Workers = o.engine, o.workers
	paperSize, params := o.params(s, app)
	se := experiments.NewSession(s)

	cfg := se.Scale.Machine(procs)
	cfg.ProcsPerNode = o.ppn
	switch strings.ToLower(o.mapping) {
	case "linear", "":
	case "random":
		cfg.Mapping = topology.Random(procs, int64(o.seed))
	case "gray":
		cfg.Mapping = topology.GrayPairs(procs, cfg.ProcsPerNode, core.NodesPerRouter)
	case "split":
		cfg.Mapping = topology.SplitPairs(procs)
	default:
		fmt.Fprintf(stderr, "origin run: -mapping %q: want linear, random, gray or split\n", o.mapping)
		return 2
	}

	seq, err := se.Sequential(app, paperSize)
	if err != nil {
		fmt.Fprintln(stderr, "sequential run:", err)
		return 1
	}
	if o.trace != "" {
		cfg.Trace = trace.Options{Enabled: true, Lossless: true}
	} else if o.arrays {
		// Per-array attribution is folded from the tracer's page heat.
		cfg.Trace.Enabled = true
	}
	// The record carries the sharing report, as -explain prints it.
	cfg.Sharing.Enabled = o.explain || o.record != ""
	cfg.HostProf = o.hostprof != ""
	if every > 0 {
		if err := os.MkdirAll(o.ckptDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "checkpoint dir:", err)
			return 1
		}
		cfg.Checkpoint.Every = every
		cfg.Checkpoint.Dir = o.ckptDir
		cfg.Checkpoint.Spec = se.Scale.RunSpec(app, params)
	}
	m := core.New(cfg)
	if err := app.Run(m, params); err != nil {
		fmt.Fprintln(stderr, "parallel run:", err)
		return 1
	}
	code := 0
	r := m.Result()
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
	summarize(stdout, m)
	fmt.Fprintf(stdout, "contention: hub queueing %.3f ms  memory queueing %.3f ms\n",
		r.HubQueued.Milliseconds(), r.MemQueued.Milliseconds())
	if every > 0 {
		if n := len(m.Checkpoints()); n > 0 {
			fmt.Fprintf(stdout, "checkpoints: %d files -> %s (resume with -resume <file>)\n", n, o.ckptDir)
		} else {
			fmt.Fprintf(stderr, "origin run: -checkpoint-every %v captured no checkpoint: %s\n", every, noCapture(m, every))
			code = 1
		}
	}
	if node, q := r.HottestHub(); node >= 0 && q > 0 {
		fmt.Fprintf(stdout, "            hottest hub: node %d (%.3f ms queued)\n", node, q.Milliseconds())
	}
	if o.trace != "" {
		tr := m.Tracer()
		if err := writeFile(o.trace, tr.WritePerfetto); err != nil {
			fmt.Fprintln(stderr, "trace export:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace:      %d events -> %s (open at ui.perfetto.dev)\n",
			tr.EventsRecorded(), o.trace)
		fmt.Fprintf(stdout, "            top-10 pages hold %.1f%% of remote misses\n", 100*tr.RemoteMissShare(10))
		section(stdout, "Per-page sharing heat (worst first)", tr.PageReport(o.top))
		section(stdout, "Per-block sharing heat (worst first)", tr.BlockReport(o.top))
		section(stdout, "Synchronization wait ranking", tr.SyncReport(o.top))
		section(stdout, "Access latency by class", tr.LatencyReport())
		section(stdout, "Queueing delay by resource", tr.QueueReport())
	}
	if o.hostprof != "" {
		hp := m.HostProf()
		if err := writeFile(o.hostprof, hp.WritePerfetto); err != nil {
			fmt.Fprintln(stderr, "hostprof export:", err)
			return 1
		}
		rep := hp.Report()
		fmt.Fprintf(stdout, "hostprof:   host timeline -> %s (open at ui.perfetto.dev)\n", o.hostprof)
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, perf.Table(rep.Rows()))
		fmt.Fprintln(stdout, perf.Table(rep.LaneRows()))
		fmt.Fprintln(stdout, perf.Table(rep.SummaryRows()))
	}
	if o.breakdown {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, perf.Continuum(r.PerProc, 64, 12))
	}
	if o.arrays {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, perf.Table(m.ArrayReport()))
	}
	if o.phases {
		printPhases(stdout, m)
	}
	if o.explain {
		printReport(stdout, app.Name(), procs, se.Scale.Div, m.Elapsed().Milliseconds(), m.SharingReport(0), o.top)
	}
	if o.record != "" {
		a := experiments.BuildArtifact("run "+strings.Join(args, " "), app, params, m)
		if err := a.WriteFile(o.record); err != nil {
			fmt.Fprintln(stderr, "record:", err)
			return 1
		}
	}
	return code
}

// resumeFlags are the flags -resume takes. The checkpoint records the rest
// of the run, so any other flag would be ignored.
var resumeFlags = map[string]bool{
	"resume": true, "scenario": true, "engine": true, "workers": true,
	"checkpoint-every": true, "checkpoint-dir": true,
}

// checkRun checks what run's flag set cannot, and returns the
// -checkpoint-every grid step.
func checkRun(o *opts, fs *flag.FlagSet) (sim.Time, error) {
	if o.resume != "" {
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			if !resumeFlags[f.Name] {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return 0, fmt.Errorf("-resume rebuilds the run its checkpoint records; it takes no %s", strings.Join(ignored, ", "))
		}
	}
	if err := checkEngine(o.engine); err != nil {
		return 0, err
	}
	var every sim.Time
	if o.ckptEvery != "" {
		d, err := time.ParseDuration(o.ckptEvery)
		if err != nil || d <= 0 {
			return 0, fmt.Errorf("-checkpoint-every %q: want a positive Go duration like 1ms", o.ckptEvery)
		}
		every = sim.Time(d.Nanoseconds()) * sim.Nanosecond
	}
	return every, nil
}

// checkEngine refuses an -engine other than serial or parallel.
func checkEngine(engine string) error {
	if engine != "serial" && engine != "parallel" {
		return fmt.Errorf("-engine %q: want serial or parallel", engine)
	}
	return nil
}

// noCapture explains why a run checkpointed every `every` captured
// nothing. Captures happen at quiet round opens: no processor holds a
// lock, waits in a barrier or has a cross-shard transaction in flight. A
// machine whose processors all sit on one router has one shard, so the
// engine runs ahead from its first round, at time 0, and opens no other.
// A machine of several shards opens rounds, but a communication-heavy
// program may keep a global section open at every one of them.
func noCapture(m *core.Machine, every sim.Time) string {
	if m.Fabric().NumRouters() == 1 {
		return fmt.Sprintf("all %d processors sit on one router, so the machine has one shard and no quiescent point after its first round", m.NumProcs())
	}
	if every > m.Elapsed() {
		return fmt.Sprintf("the grid step is longer than the run (%v)", m.Elapsed())
	}
	return fmt.Sprintf("no round opened at or after the first grid point (%v), before the run ended at %v, with no lock, barrier or cross-shard transaction in flight; communication-heavy runs may never open one", every, m.Elapsed())
}

// writeFile creates path and writes it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// section prints a titled attribution table, skipping one with no rows.
func section(w io.Writer, title string, rows [][]string) {
	if len(rows) <= 1 {
		return
	}
	fmt.Fprintf(w, "\n%s\n%s", title, perf.Table(rows))
}

// summarize prints the breakdown and event counts the run and resume
// paths share.
func summarize(w io.Writer, m *core.Machine) {
	r := m.Result()
	avg := r.Average()
	busy, mem, sync := avg.Fractions()
	fmt.Fprintf(w, "breakdown:  busy %.1f%%  memory %.1f%%  sync %.1f%%\n", 100*busy, 100*mem, 100*sync)
	c := r.Counters
	fmt.Fprintf(w, "misses:     local %d  remote-clean %d  remote-dirty %d  (hits %d)\n",
		c.LocalMisses, c.RemoteClean, c.RemoteDirty, c.Hits)
	fmt.Fprintf(w, "traffic:    invalidations %d  writebacks %d  prefetches %d  fetch&ops %d\n",
		c.Invalidations, c.Writebacks, c.Prefetches, c.FetchOps)
}

// printPhases prints the per-phase time breakdown of a phase-instrumented
// application.
func printPhases(w io.Writer, m *core.Machine) {
	ph := m.PhaseBreakdowns()
	fmt.Fprintln(w)
	if len(ph) == 0 {
		fmt.Fprintln(w, "(no phase labels: this application is not phase-instrumented)")
		return
	}
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
	fmt.Fprintln(w, perf.Table(rows))
}

// printReport renders one application's sharing diagnosis.
func printReport(w io.Writer, app string, procs, scale int, elapsedMS float64, r *sharing.Report, top int) {
	fmt.Fprintf(w, "== %s at %d processors (scale 1/%d): %.3f ms simulated ==\n",
		app, procs, scale, elapsedMS)
	fmt.Fprintf(w, "%d blocks touched; misses local=%d remote-clean=%d remote-dirty=%d upgrades=%d\n",
		r.Blocks, r.Misses[0], r.Misses[1], r.Misses[2], r.Misses[3])
	section(w, "Sharing patterns", r.PatternRows())
	section(w, "Miss causes (coherence split exactly)", r.SplitRows())
	section(w, "Hottest blocks", r.TopBlockRows(top))
	section(w, "False-sharing suspects", r.SuspectRows(top))
	section(w, "Remote misses by home node", r.NodeRows())
	section(w, "Hottest pages", r.PageRows(top))
	for _, b := range r.Suspects {
		if b.Advice != "" {
			fmt.Fprintf(w, "\nadvice for block %#x: %s\n", b.Block, b.Advice)
			break
		}
	}
	fmt.Fprintf(w, "\nhome imbalance index: %.2f (1.0 = balanced)\n", r.Imbalance)
	fmt.Fprintf(w, "verdict: %s\n\n", r.Verdict)
}

// runResume implements -resume: decode the checkpoint, rebuild the exact
// machine configuration and workload parameters its header records, replay
// to the recorded quiescent point under the requested engine, prove state
// equality, and run to completion. The window width always comes from the
// checkpoint's configuration (the quiescent-sequence numbering depends on
// it); the engine and worker count may be changed freely — results are
// bit-identical.
func runResume(stdout, stderr io.Writer, o *opts, every sim.Time) int {
	sn, err := snapshot.ReadFile(o.resume)
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
	cfg.Engine = o.engine
	cfg.Workers = o.workers
	// An explicit -scenario on resume overrides the machine recorded in the
	// header; ValidateResume refuses if it doesn't match the checkpoint's.
	if o.scenario != "" {
		cfg.Scenario = &o.specs[0]
	}
	if every > 0 {
		if err := os.MkdirAll(o.ckptDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "checkpoint dir:", err)
			return 1
		}
		cfg.Checkpoint.Every = every
		cfg.Checkpoint.Dir = o.ckptDir
	}
	s := experiments.Scale{Div: spec.Div, CacheDiv: spec.CacheDiv, Steps: spec.Steps, Seed: spec.Seed,
		Engine: o.engine, Workers: o.workers}
	var m *core.Machine
	s.OnMachine = func(_ string, mm *core.Machine) { m = mm }
	fmt.Fprintf(stdout, "resuming %s size=%d procs=%d from %s (quiescent seq %d, t=%v)\n",
		spec.App, spec.Size, sn.Header.Procs, o.resume, sn.Header.QuiesSeq, sn.Header.VirtualTime)
	if _, err := s.ResumeConfig(app, cfg, params, sn); err != nil {
		fmt.Fprintln(stderr, "resume:", err)
		return 1
	}
	fmt.Fprintf(stdout, "state proof: live replay matches recorded state at seq %d — resumed\n", sn.Header.QuiesSeq)
	fmt.Fprintf(stdout, "parallel:   %10.3f ms\n", m.Elapsed().Milliseconds())
	summarize(stdout, m)
	if every > 0 {
		fmt.Fprintf(stdout, "checkpoints: %d files -> %s\n", len(m.Checkpoints()), o.ckptDir)
	}
	return 0
}
