package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"time"

	"origin2000/internal/core"
	"origin2000/internal/experiments"
	"origin2000/internal/hostprof"
	"origin2000/internal/metrics"
	"origin2000/internal/perf"
	"origin2000/internal/sim"
	"origin2000/internal/trace"
)

// runSpec is one simulated run of a pass: an application at its basic
// problem size on a machine with Procs processors.
type runSpec struct {
	App   string
	Procs int
}

func (r runSpec) label() string { return fmt.Sprintf("%s/%d", r.App, r.Procs) }

// workload is a fixed list of runs, repeated pass after pass. Simulated
// caches start empty on every run, as in the paper's runs.
type workload struct {
	Name string
	Runs []runSpec
	// Workers is the parallel engine's host worker count; 0 runs the
	// serial engine.
	Workers int
	// Observed turns every observer on: the coherence checker, the ring
	// tracer with a Perfetto export, the 50 µs metrics sampler, the
	// sharing classifier with its report, and the critical-path recorder.
	Observed bool
}

// fig2Runs is the largest processor count of the paper's Figure 2 for its
// three memory-bound applications.
var fig2Runs = []runSpec{{"FFT", 128}, {"Ocean", 128}, {"Radix", 128}}

// workloads returns the benchmark's workloads. README.md records why each
// was chosen and which layer metrics each should move.
func workloads() []workload {
	var seq []runSpec
	for _, a := range experiments.Apps() {
		seq = append(seq, runSpec{a.Name(), 1})
	}
	return []workload{
		{Name: "fig2-128", Runs: fig2Runs},
		{Name: "fig2-128-w2", Runs: fig2Runs, Workers: 2},
		{Name: "table2-seq", Runs: seq},
		{Name: "observed-32", Runs: []runSpec{{"FFT", 32}, {"Ocean", 32}, {"Barnes", 32}}, Observed: true},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// passKind selects how a pass configures its machines.
type passKind int

const (
	// passMeasured runs the workload as defined.
	passMeasured passKind = iota
	// passReference runs the serial engine with every observer off: the
	// simulated results every other pass must reproduce bit for bit.
	passReference
	// passHostProf is passMeasured with the engine's host profiler on,
	// which must not change the simulated results.
	passHostProf
)

// scale builds the experiment scale of one pass.
func (w workload) scale(div int, seed int64, k passKind) experiments.Scale {
	s := experiments.Scale{Div: div, CacheDiv: div, Seed: seed}
	if k == passReference {
		return s
	}
	if w.Workers > 0 {
		s.Engine, s.Workers = "parallel", w.Workers
	}
	if w.Observed {
		s.Check = true
		s.Trace = trace.Options{Enabled: true}
		s.Metrics = metrics.Options{Enabled: true, Interval: 50 * sim.Microsecond}
		s.Sharing = true
		s.CritPath = true
	}
	s.HostProf = k == passHostProf
	return s
}

// runOut is what one run leaves behind. It keeps no reference to the
// machine, so a pass's observers are garbage once the pass ends.
type runOut struct {
	fp       string
	counters sim.Counters
	shape    sim.SchedShape
	host     *hostprof.Report
	setup    time.Duration
	err      error
}

// runPass executes every run of the workload once at scale s, recording
// spans into tr when it is non-nil.
func (w workload) runPass(s experiments.Scale, tr *tracer) []runOut {
	outs := make([]runOut, len(w.Runs))
	tr.do("pass", func() {
		for i, r := range w.Runs {
			outs[i] = runOne(r, s, tr)
		}
	})
	return outs
}

// runOne builds a machine, runs the application on it (which generates
// the input from the seed and verifies the output), and collects the
// result, timing each step from outside.
func runOne(r runSpec, s experiments.Scale, tr *tracer) (o runOut) {
	app := experiments.AppByName(r.App)
	params := s.Params(app, app.BasicSize(), "")
	cfg := s.Machine(r.Procs)
	tr.run(r.label(), func() {
		var m *core.Machine
		tr.do("setup", func() {
			start := time.Now()
			m = core.New(cfg)
			o.setup = time.Since(start)
		})
		tr.do("simulate", func() { o.err = app.Run(m, params) })
		tr.do("collect", func() {
			res := m.Result()
			o.fp = fingerprint(res)
			o.counters = res.Counters
			o.shape = m.SchedShape()
			if hp := m.HostProf(); hp != nil {
				o.host = hp.Report()
			}
		})
		if t := m.Tracer(); t != nil {
			tr.do("trace.export", func() {
				if err := t.WritePerfetto(io.Discard); err != nil && o.err == nil {
					o.err = fmt.Errorf("perfetto export: %w", err)
				}
			})
		}
		if m.SharingObserver() != nil {
			tr.do("sharing.report", func() { m.SharingReport(10) })
		}
		if c := m.Checker(); c != nil && o.err == nil {
			o.err = c.Err()
		}
	})
	return o
}

// fingerprint hashes a run's simulated results: elapsed time, counters,
// per-processor breakdowns and per-node queueing. Equal fingerprints mean
// bit-identical results.
func fingerprint(r perf.Result) string {
	h := sha256.New()
	put := func(v any) { _ = binary.Write(h, binary.LittleEndian, v) } // hash.Hash writes never fail
	put(r.Elapsed)
	put(r.Counters)
	putSlice(h, r.PerProc)
	for _, q := range [][]sim.Time{r.HubQueuedPerNode, r.MemQueuedPerNode, r.HubBusyPerNode, r.RouterQueuedPerRouter, r.MetaQueuedPerMeta} {
		putSlice(h, q)
	}
	put(r.Migrations)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// putSlice hashes a slice with its length, so adjacent slices cannot
// trade elements without changing the hash.
func putSlice[T any](h hash.Hash, s []T) {
	_ = binary.Write(h, binary.LittleEndian, int64(len(s)))
	_ = binary.Write(h, binary.LittleEndian, s)
}

func accesses(outs []runOut) int64 {
	var n int64
	for _, o := range outs {
		n += o.counters.Reads + o.counters.Writes
	}
	return n
}

// gate is the correctness check applied to every run the benchmark makes.
// A run fails on an application verify error, a checker violation or
// export error, or a fingerprint that differs from the reference pass.
type gate struct {
	workload          string
	runs              []runSpec
	ref               []string // reference fingerprints, by run
	attempted, failed int
}

func (g *gate) check(pass string, outs []runOut) {
	for i, o := range outs {
		g.attempted++
		why := ""
		switch {
		case o.err != nil:
			why = o.err.Error()
		case g.ref != nil && o.fp != g.ref[i]:
			why = fmt.Sprintf("fingerprint %s differs from the reference pass's %s", o.fp, g.ref[i])
		}
		if why != "" {
			g.failed++
			fmt.Fprintf(os.Stderr, "hostbench: FAIL %s %s (%s pass): %s\n", g.workload, g.runs[i].label(), pass, why)
		}
	}
}

// setReference checks the reference pass and adopts its fingerprints.
func (g *gate) setReference(outs []runOut) {
	g.check("reference", outs)
	g.ref = make([]string, len(outs))
	for i, o := range outs {
		g.ref[i] = o.fp
	}
}
