package main

import (
	"context"
	"encoding/json"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// The host-time ledger splits a traced pass's CPU samples across the
// simulator's layers, named after its packages, and reports the leftover
// against wall time. Everything is measured from outside the program: the
// benchmark profiles its own calls and attributes samples by call stack.

const repoPrefix = "origin2000/internal/"

// layerOfPkg maps each internal package to its ledger layer. Packages that
// only assemble or summarise a machine count as core; the engine's own
// host profiler counts as the engine.
var layerOfPkg = map[string]string{
	"apps": "apps", "workload": "apps",
	"core": "core", "memclass": "core", "perf": "core", "experiments": "core",
	"scenario": "core", "snapshot": "core",
	"cache":     "cache",
	"directory": "directory",
	"topology":  "topology",
	"mempolicy": "mempolicy",
	"synchro":   "synchro",
	"sim":       "sim", "hostprof": "sim",
	"check": "check", "trace": "trace", "metrics": "metrics",
	"sharing": "sharing", "critpath": "critpath",
}

// observerLayers are the layers whose sum is observers.self_s.
var observerLayers = []string{"check", "trace", "metrics", "sharing", "critpath"}

// ledgerBuckets lists the ledger's buckets in print order.
var ledgerBuckets = []string{
	"apps.self_s", "core.self_s", "cache.self_s", "directory.self_s",
	"topology.self_s", "mempolicy.self_s", "synchro.self_s", "sim.self_s",
	"check.self_s", "trace.self_s", "metrics.self_s", "sharing.self_s", "critpath.self_s",
	"runtime.sched_s", "runtime.gc_s",
}

// isGCFrame reports whether fn is garbage-collector work: mark workers,
// mark assists, and background sweeping and scavenging.
func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// bucketOf attributes one sample's stack (innermost frame first). GC work
// counts as runtime.gc_s wherever it occurs; otherwise the innermost
// repository frame names the layer; a stack with no repository frame is
// the Go scheduler and runtime, runtime.sched_s.
func bucketOf(funcs []string) string {
	for _, fn := range funcs {
		if isGCFrame(fn) {
			return "runtime.gc_s"
		}
	}
	for _, fn := range funcs {
		rest, ok := strings.CutPrefix(fn, repoPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if l, ok := layerOfPkg[pkg]; ok {
			pkg = l
		}
		return pkg + ".self_s"
	}
	return "runtime.sched_s"
}

// ledger accumulates the attribution of every profiled pass.
type ledger struct {
	passes int
	wallS  float64            // summed wall seconds of the profiled passes
	self   map[string]float64 // bucket -> summed CPU seconds
	bySpan map[string]float64 // pprof span label -> summed CPU seconds
}

func newLedger() *ledger {
	return &ledger{self: map[string]float64{}, bySpan: map[string]float64{}}
}

// add folds one profiled pass: its wall time and its CPU samples.
func (l *ledger) add(wallS float64, samples []cpuSample) {
	l.passes++
	l.wallS += wallS
	for _, s := range samples {
		sec := float64(s.NS) / 1e9
		l.self[bucketOf(s.Funcs)] += sec
		span := s.Labels["span"]
		if span == "" {
			span = "(unlabelled)"
		}
		l.bySpan[span] += sec
	}
}

// perPass returns bucket's seconds per profiled pass.
func (l *ledger) perPass(bucket string) float64 {
	if l.passes == 0 {
		return 0
	}
	return l.self[bucket] / float64(l.passes)
}

// passS is the mean wall seconds of a profiled pass.
func (l *ledger) passS() float64 {
	if l.passes == 0 {
		return 0
	}
	return l.wallS / float64(l.passes)
}

// residual is wall time per pass not covered by samples. Samples count CPU
// time on every thread, so the residual is negative when GC workers or
// engine workers ran in parallel with the simulation, and positive when
// the process waited.
func (l *ledger) residual() float64 {
	r := l.passS()
	for b := range l.self {
		r -= l.perPass(b)
	}
	return r
}

// extraBuckets lists buckets outside ledgerBuckets (a package added after
// this table was written), so the printed ledger still sums exactly.
func (l *ledger) extraBuckets() []string {
	known := map[string]bool{}
	for _, b := range ledgerBuckets {
		known[b] = true
	}
	var extra []string
	for b := range l.self {
		if !known[b] {
			extra = append(extra, b)
		}
	}
	sort.Strings(extra)
	return extra
}

// span is one timed call boundary in the benchmark's own code.
type span struct {
	Name   string
	ID     int // unique, from 1
	Parent int // enclosing span's ID; 0 for the root
	Run    int // shared by the spans of one simulated run; 0 outside runs
	Start  time.Duration
	End    time.Duration
}

// tracer records spans in memory. Its root span (ID 1) covers the traced
// part of a workload. A nil *tracer records nothing and adds no labels, so
// untraced passes run the same code.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // indices of the open spans, innermost last
	runs  int
}

func newTracer(root string) *tracer {
	return &tracer{epoch: time.Now(), spans: []span{{Name: root, ID: 1}}, open: []int{0}}
}

// do runs fn inside a span named name. The span name is the pprof label
// "span" of the calling goroutine while fn runs, and goroutines fn starts
// (the engine's processors) inherit it.
func (t *tracer) do(name string, fn func()) { t.enter(name, false, fn) }

// run is do for a span that begins a simulated run: it and every span
// inside it share a fresh run id.
func (t *tracer) run(name string, fn func()) { t.enter(name, true, fn) }

func (t *tracer) enter(name string, newRun bool, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := t.spans[t.open[len(t.open)-1]]
	s := span{Name: name, ID: len(t.spans) + 1, Parent: parent.ID, Run: parent.Run}
	if newRun {
		t.runs++
		s.Run = t.runs
	}
	idx := len(t.spans)
	t.open = append(t.open, idx)
	s.Start = time.Since(t.epoch)
	t.spans = append(t.spans, s)
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) { fn() })
	t.spans[idx].End = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// finish closes the root span.
func (t *tracer) finish() { t.spans[0].End = time.Since(t.epoch) }

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children.
func selfTimes(spans []span) []time.Duration {
	byID := map[int]int{}
	for i, s := range spans {
		byID[s.ID] = i
	}
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered time.Duration
		var cur iv
		for j, v := range ivs {
			switch {
			case j == 0:
				cur = v
			case v.lo <= cur.hi:
				cur.hi = max(cur.hi, v.hi)
			default:
				covered += cur.hi - cur.lo
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.hi - cur.lo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanTotals sums span durations by span name.
func spanTotals(spans []span) map[string]time.Duration {
	total := map[string]time.Duration{}
	for _, s := range spans {
		total[s.Name] += s.End - s.Start
	}
	return total
}

// writePerfetto writes spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing load. Each event carries its span, parent and run
// ids and its self time.
func writePerfetto(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{
			Name: s.Name, Cat: "hostbench", Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "run": s.Run, "self_us": float64(self[i]) / 1e3},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
