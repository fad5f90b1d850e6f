package sim

import "testing"

// BenchmarkAdvance measures the fast path of virtual-time accounting.
func BenchmarkAdvance(b *testing.B) {
	e := NewEngine(1, 0)
	err := e.Run(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(Nanosecond, StatBusy)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulerRoundTrip measures a full yield/resume cycle between
// two processors — the engine's context-switch cost.
func BenchmarkSchedulerRoundTrip(b *testing.B) {
	e := NewEngine(2, Nanosecond)
	err := e.Run(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(10*Nanosecond, StatBusy) // exceeds the quantum: yields
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceAcquire measures the contention-timeline operation.
func BenchmarkResourceAcquire(b *testing.B) {
	var r Resource
	t := Time(0)
	for i := 0; i < b.N; i++ {
		t = r.Acquire(t, 40)
	}
}
