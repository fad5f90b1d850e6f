package sim

import (
	"reflect"
	"testing"
	"time"
)

// TestAdaptWindowPure pins the adaptive policy as a pure function: each row
// is (current width, base, ceiling, observables) -> next width, covering
// every branch and both clamps. If a change to the policy is intentional,
// update the rows — silently different widths would silently change every
// adaptive schedule.
func TestAdaptWindowPure(t *testing.T) {
	const us = Microsecond
	cases := []struct {
		name           string
		cur, base, max Time
		obs            WindowObs
		want           Time
	}{
		{"no-commit-doubles", 2 * us, us, 64 * us, WindowObs{Chains: 8, Shards: 8}, 4 * us},
		{"light-commit-grows-half", 4 * us, us, 64 * us, WindowObs{Chains: 8, Shards: 8, CommitRuns: 2}, 6 * us},
		{"commit-bound-quarters", 8 * us, us, 64 * us, WindowObs{Chains: 4, Shards: 4, CommitRuns: 4}, 2 * us},
		{"commit-exceeds-chains-quarters", 8 * us, us, 64 * us, WindowObs{Chains: 4, Shards: 4, CommitRuns: 9}, 2 * us},
		{"mixed-halves", 8 * us, us, 64 * us, WindowObs{Chains: 8, Shards: 8, CommitRuns: 3}, 4 * us},
		{"underfilled-doubles", 2 * us, us, 64 * us, WindowObs{Chains: 3, Shards: 8, CommitRuns: 50}, 4 * us},
		{"underfilled-beats-commit-bound", 8 * us, us, 64 * us, WindowObs{Chains: 1, Shards: 32, CommitRuns: 16}, 16 * us},
		{"floor-clamp", us, us, 64 * us, WindowObs{Chains: 2, Shards: 2, CommitRuns: 2}, us},
		{"ceiling-clamp", 48 * us, us, 64 * us, WindowObs{Chains: 8, Shards: 8}, 64 * us},
		{"cur-below-base-lifts", 100 * Nanosecond, us, 64 * us, WindowObs{Chains: 1, Shards: 1, CommitRuns: 1}, us},
		{"zero-base-defaults", 2 * us, 0, 64 * us, WindowObs{Chains: 8, Shards: 8}, 4 * us},
		{"max-below-base-lifts", 2 * us, 4 * us, us, WindowObs{Chains: 8, Shards: 8}, 4 * us},
		{"idle-window-doubles", 3 * us, us, 64 * us, WindowObs{}, 6 * us},
	}
	for _, c := range cases {
		if got := AdaptWindow(c.cur, c.base, c.max, c.obs); got != c.want {
			t.Errorf("%s: AdaptWindow(%v, %v, %v, %+v) = %v, want %v",
				c.name, c.cur, c.base, c.max, c.obs, got, c.want)
		}
	}
}

// adaptivePingPong runs a 2-proc shared-shard workload under adaptive
// windows and returns the final clocks, stats, and schedule shape.
func adaptivePingPong(t *testing.T, workers int) ([]Time, []Counters, SchedShape) {
	t.Helper()
	e := NewEngine(2, 500*Nanosecond)
	e.SetShards([]int{0, 0}, 1)
	e.SetAdaptiveWindow(0)
	e.SetWorkers(workers)
	var res Resource
	err := e.Run(func(p *Proc) {
		for i := 0; i < 2000; i++ {
			p.Advance(Time(100+50*p.ID())*Nanosecond, StatBusy)
			p.AwaitGlobal()
			p.AdvanceTo(res.Acquire(p.Now(), 40), StatSync)
			p.EndGlobal()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	now := make([]Time, 2)
	st := make([]Counters, 2)
	for i := 0; i < 2; i++ {
		now[i] = e.Proc(i).Now()
		st[i] = e.Proc(i).Counters
	}
	return now, st, e.Shape()
}

// TestAdaptiveWindowWorkerInvariance proves the adaptive width sequence is
// a pure function of the schedule: the whole run — clocks, stats, and the
// schedule shape including every window width — is bit-identical at
// workers 1, 2, and 8.
func TestAdaptiveWindowWorkerInvariance(t *testing.T) {
	baseNow, baseSt, baseShape := adaptivePingPong(t, 1)
	for _, w := range []int{2, 8} {
		now, st, shape := adaptivePingPong(t, w)
		if !reflect.DeepEqual(now, baseNow) || !reflect.DeepEqual(st, baseSt) {
			t.Fatalf("workers=%d diverged from workers=1:\n got %v %v\nwant %v %v", w, now, st, baseNow, baseSt)
		}
		if shape != baseShape {
			t.Fatalf("workers=%d schedule shape %+v != workers=1 shape %+v", w, shape, baseShape)
		}
	}
}

// TestRunAheadPingPong pins the run-ahead fast path structurally: a
// 2-processor machine whose processors share one shard and wake each other
// must run entirely inside run-ahead spans — no windowed rounds at all —
// and hand off directly between the processors.
func TestRunAheadPingPong(t *testing.T) {
	e := NewEngine(2, DefaultQuantum)
	e.SetShards([]int{0, 0}, 1)
	e.SetWorkers(2)
	err := e.Run(func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Advance(10*Microsecond, StatBusy)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Shape()
	if s.RunAheadSpans < 1 {
		t.Fatalf("expected at least one run-ahead span, shape %+v", s)
	}
	if s.Windows != 0 {
		t.Fatalf("single-shard ping-pong should never open a window, shape %+v", s)
	}
	if s.RunAheadHandoffs == 0 {
		t.Fatalf("expected direct handoffs inside the run-ahead span, shape %+v", s)
	}
}

// TestSchedulerRoundTripRegression pins the engine's context-switch cost:
// the quantum-exceeding yield/resume cycle of BenchmarkSchedulerRoundTrip
// must cost no more than a round trip of a bare two-goroutine ping-pong over
// buffered channels, timed in the same test. The ratio, not an absolute
// ceiling, is what holds across hosts; the coroutine handoff keeps it well
// below 1 (0.3 to 0.4 on a 2-vCPU host). The run-ahead fast path and the
// channel-free serial lane exist to keep this number low, so a regression
// here means one of them stopped engaging.
//
// Skipped under -short and under -race (instrumentation dominates both
// sides differently).
func TestSchedulerRoundTripRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock ratio: skipped under -short")
	}
	if raceEnabled {
		t.Skip("wall-clock ratio: skipped under -race")
	}
	const maxRatio = 1.0
	// Best of three: host noise (a co-scheduled test binary, a GC cycle)
	// only ever adds time to either side, so the best attempt is the honest
	// estimate of the engine's relative cost.
	got := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		res := testing.Benchmark(BenchmarkSchedulerRoundTrip)
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		ref := pingPongNS(200000)
		ratio := ns / ref
		t.Logf("attempt %d: engine round trip %.1f ns/op over %d iterations, channel ping-pong %.1f ns, ratio %.2f (bound %.2f)",
			attempt+1, ns, res.N, ref, ratio, maxRatio)
		if attempt == 0 || ratio < got {
			got = ratio
		}
		if got <= maxRatio {
			break
		}
	}
	if got > maxRatio {
		t.Errorf("scheduler round trip costs %.2fx a channel ping-pong round trip, bound %.2fx", got, maxRatio)
	}
}

// pingPongNS times n round trips between two goroutines handing a token
// back and forth over buffered channels, and returns ns per round trip.
func pingPongNS(n int) float64 {
	ping, pong := make(chan struct{}, 1), make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			<-ping
			pong <- struct{}{}
		}
	}()
	start := time.Now()
	for i := 0; i < n; i++ {
		ping <- struct{}{}
		<-pong
	}
	d := time.Since(start)
	<-done
	return float64(d.Nanoseconds()) / float64(n)
}
