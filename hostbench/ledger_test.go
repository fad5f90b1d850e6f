package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 50): 40 ms, not 50.
		{Name: "a", ID: 2, Parent: 1, Start: 10 * ms, End: 40 * ms},
		{Name: "b", ID: 3, Parent: 1, Start: 20 * ms, End: 50 * ms},
		// A disjoint child covers [60, 70).
		{Name: "c", ID: 4, Parent: 1, Start: 60 * ms, End: 70 * ms},
		// A grandchild counts against its parent only.
		{Name: "d", ID: 5, Parent: 4, Start: 62 * ms, End: 65 * ms},
		// A child reaching past its parent is clipped to it.
		{Name: "e", ID: 6, Parent: 2, Start: 35 * ms, End: 45 * ms},
	}
	want := []time.Duration{50 * ms, 25 * ms, 30 * ms, 7 * ms, 3 * ms, 10 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNestsSpansAndSharesRunIDs(t *testing.T) {
	tr := newTracer("w")
	tr.do("pass", func() {
		for i := 0; i < 2; i++ {
			tr.run("run", func() {
				tr.do("setup", func() {})
				tr.do("simulate", func() {})
			})
		}
	})
	tr.finish()
	var none *tracer
	called := false
	none.do("x", func() { called = true })
	if !called {
		t.Fatal("a nil tracer must still run the function")
	}
	byID := map[int]span{}
	for _, s := range tr.spans {
		byID[s.ID] = s
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	for _, s := range tr.spans {
		switch s.Name {
		case "setup", "simulate":
			p := byID[s.Parent]
			if p.Name != "run" || s.Run != p.Run || s.Run == 0 {
				t.Errorf("%s: parent %s run %d, own run %d", s.Name, p.Name, p.Run, s.Run)
			}
		case "pass":
			if s.Parent != 1 || s.Run != 0 {
				t.Errorf("pass: parent %d run %d", s.Parent, s.Run)
			}
		}
	}
	runs := map[int]bool{}
	for _, s := range tr.spans {
		if s.Name == "run" {
			runs[s.Run] = true
		}
	}
	if len(runs) != 2 {
		t.Errorf("two runs got run ids %v", runs)
	}
	var buf bytes.Buffer
	if err := writePerfetto(&buf, tr.spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != len(tr.spans) {
		t.Fatalf("perfetto output: %d events, err %v", len(doc.TraceEvents), err)
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "origin2000/internal/cache.(*Cache).Insert", "origin2000/internal/core.(*Proc).access"}, "cache.self_s"},
		{[]string{"origin2000/internal/apps/fft.transpose", "main.runOne"}, "apps.self_s"},
		{[]string{"origin2000/internal/workload.Mix64"}, "apps.self_s"},
		{[]string{"runtime.chansend", "origin2000/internal/sim.(*Proc).park"}, "sim.self_s"},
		{[]string{"origin2000/internal/hostprof.(*Profiler).SerialBegin"}, "sim.self_s"},
		{[]string{"origin2000/internal/perf.Table"}, "core.self_s"},
		{[]string{"origin2000/internal/check.(*Checker).OnFill"}, "check.self_s"},
		// GC work goes to the GC bucket even under a repository frame.
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "origin2000/internal/core.New"}, "runtime.gc_s"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "runtime.gc_s"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched_s"},
		{nil, "runtime.sched_s"},
		{[]string{"origin2000/internal/newpkg.F"}, "newpkg.self_s"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestLedgerSumsToPassTime(t *testing.T) {
	l := newLedger()
	cs := func(ns int64, label string, stack ...string) cpuSample {
		return cpuSample{Funcs: stack, NS: ns, Labels: map[string]string{"span": label}}
	}
	l.add(1.0, []cpuSample{
		cs(300e6, "simulate", "origin2000/internal/cache.(*Cache).Lookup"),
		cs(200e6, "simulate", "runtime.gcBgMarkWorker"),
		cs(100e6, "setup", "origin2000/internal/core.New"),
	})
	l.add(2.0, []cpuSample{cs(1500e6, "simulate", "origin2000/internal/sim.(*Engine).Run", "main.runOne")})
	if got := l.perPass("cache.self_s"); got != 0.15 {
		t.Errorf("cache per pass = %v, want 0.15", got)
	}
	if got := l.perPass("runtime.gc_s"); got != 0.1 {
		t.Errorf("gc per pass = %v, want 0.1", got)
	}
	sum := l.residual()
	for _, b := range append(ledgerBuckets, l.extraBuckets()...) {
		sum += l.perPass(b)
	}
	if math.Abs(sum-l.passS()) > 1e-12 || l.passS() != 1.5 {
		t.Errorf("self times + residual = %v, traced pass_s = %v (want 1.5)", sum, l.passS())
	}
	if got := l.residual(); math.Abs(got-(1.5-1.05)) > 1e-12 {
		t.Errorf("residual = %v, want 0.45", got)
	}
	if got := l.bySpan["setup"]; got != 0.1 {
		t.Errorf("setup span CPU = %v, want 0.1", got)
	}
}

// burn keeps a CPU busy long enough for the profiler to sample it.
//
//go:noinline
func burn(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// TestDecodeRealProfile decodes a CPU profile written by runtime/pprof and
// finds the labelled busy function in it.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("span", "burn"), func(context.Context) { sink += burn(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.NS <= 0 {
			t.Fatalf("sample with %d ns", s.NS)
		}
		if len(s.Funcs) > 0 && strings.HasSuffix(s.Funcs[0], ".burn") && s.Labels["span"] == "burn" {
			found = true
		}
	}
	if !found {
		t.Errorf("no sample of burn labelled span=burn among %d samples", len(samples))
	}
	if _, err := decodeProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}
