package sim

import "testing"

// windowedShape runs a 4-proc, 4-shard workload with global sections (so
// windows, phase-1 chains, and commit chains all occur) and returns the
// schedule shape.
func windowedShape(t *testing.T, workers int) SchedShape {
	t.Helper()
	e := NewEngine(4, 500*Nanosecond)
	e.SetShards([]int{0, 1, 2, 3}, 4)
	e.SetWorkers(workers)
	var res Resource
	err := e.Run(func(p *Proc) {
		for i := 0; i < 500; i++ {
			p.Advance(Time(100+30*p.ID())*Nanosecond, StatBusy)
			p.AwaitGlobal()
			p.AdvanceTo(res.Acquire(p.Now(), 40), StatSync)
			p.EndGlobal()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return e.Shape()
}

// TestSchedShapeInvariants pins the internal consistency of the schedule-
// shape counters on a windowed run: the per-window counters must be
// consistent with the totals, SchedStats must agree with Shape, and every
// window's width must equal the quantum.
func TestSchedShapeInvariants(t *testing.T) {
	e := NewEngine(4, 500*Nanosecond)
	e.SetShards([]int{0, 1, 2, 3}, 4)
	e.SetWorkers(2)
	var res Resource
	err := e.Run(func(p *Proc) {
		for i := 0; i < 500; i++ {
			p.Advance(Time(100+30*p.ID())*Nanosecond, StatBusy)
			p.AwaitGlobal()
			p.AdvanceTo(res.Acquire(p.Now(), 40), StatSync)
			p.EndGlobal()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Shape()
	if s.Windows <= 0 || s.ShardChains <= 0 || s.Commits <= 0 || s.CommitRuns <= 0 {
		t.Fatalf("workload was built to exercise every counter, shape %+v", s)
	}
	// Every windowed round is exactly one quantum wide.
	if want := Time(s.Windows) * 500 * Nanosecond; s.WindowWidthSum != want {
		t.Errorf("WindowWidthSum = %v, want Windows*quantum = %v", s.WindowWidthSum, want)
	}
	// A window dispatches at most one phase-1 chain per shard.
	if s.ShardChains > 4*s.Windows {
		t.Errorf("ShardChains = %d exceeds shards*Windows = %d", s.ShardChains, 4*s.Windows)
	}
	// SchedStats is the same schedule viewed through the narrow accessor.
	windows, chains, commits := e.SchedStats()
	if windows != s.Windows || chains != s.ShardChains || commits != s.Commits {
		t.Errorf("SchedStats() = (%d, %d, %d), Shape() = %+v", windows, chains, commits, s)
	}
}

// TestSchedShapeWorkerInvariance proves the shape counters are properties
// of the schedule, not of the host: a multi-shard windowed run reports a
// bit-identical SchedShape at 1, 2, and 8 workers, even though workers=1
// takes the in-chain turnover path and workers>1 the coordinator path.
func TestSchedShapeWorkerInvariance(t *testing.T) {
	base := windowedShape(t, 1)
	for _, w := range []int{2, 8} {
		if s := windowedShape(t, w); s != base {
			t.Errorf("workers=%d shape %+v != workers=1 shape %+v", w, s, base)
		}
	}
}

// TestSchedShapeRunAhead pins the run-ahead span's accounting: a run that
// never leaves the fast path (all processors in one shard, no global
// sections) opens no windows, merges no commit queues, and executes no
// serial commit chains — run-ahead execution counts toward none of the
// windowed counters.
func TestSchedShapeRunAhead(t *testing.T) {
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
		t.Fatalf("expected a run-ahead span, shape %+v", s)
	}
	if s.Windows != 0 || s.WindowWidthSum != 0 {
		t.Errorf("run-ahead-only run opened windows: %+v", s)
	}
	if s.Commits != 0 || s.CommitRuns != 0 {
		t.Errorf("run-ahead-only run reports commit activity: %+v", s)
	}
	if s.ShardChains != 0 {
		t.Errorf("run-ahead-only run dispatched phase-1 chains: %+v", s)
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
