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

// BenchmarkWindowTurnover measures round turnover at Radix/128's shape:
// 128 processors on 64 shards, each advancing 8 windows per step from
// staggered clocks, so each window runs 16 processors of 16 shards and
// leaves the other 112 waiting. One op is one window.
func BenchmarkWindowTurnover(b *testing.B) {
	const procs, shards, stride = 128, 64, 8
	e := NewEngine(procs, Microsecond)
	shardOf := make([]int, procs)
	for i := range shardOf {
		shardOf[i] = i / (procs / shards)
	}
	e.SetShards(shardOf, shards)
	steps := b.N/stride + 1
	b.ResetTimer()
	err := e.Run(func(p *Proc) {
		p.Advance(Time(p.ID()%stride)*Microsecond, StatBusy)
		for i := 0; i < steps; i++ {
			p.Advance(stride*Microsecond, StatBusy)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
