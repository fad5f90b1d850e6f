package sim

import (
	"reflect"
	"testing"
)

// TestProcHeapTieBreaks pins the heap ordering both phase-1 shard queues
// and the commit queue use: (clock, id), id breaking every virtual-time
// tie. Pop order must be independent of push order.
func TestProcHeapTieBreaks(t *testing.T) {
	type pr struct {
		id  int
		now Time
	}
	cases := []struct {
		name string
		push []pr
		want []int // pop order by id
	}{
		{
			name: "distinct clocks order by clock",
			push: []pr{{0, 30}, {1, 10}, {2, 20}},
			want: []int{1, 2, 0},
		},
		{
			name: "equal clocks order by id",
			push: []pr{{3, 10}, {1, 10}, {2, 10}, {0, 10}},
			want: []int{0, 1, 2, 3},
		},
		{
			name: "clock beats id",
			push: []pr{{0, 20}, {3, 10}},
			want: []int{3, 0},
		},
		{
			name: "mixed ties",
			push: []pr{{5, 10}, {2, 20}, {4, 10}, {1, 20}, {3, 10}},
			want: []int{3, 4, 5, 1, 2},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var h procHeap
			for _, e := range c.push {
				h.push(&Proc{id: e.id, now: e.now})
			}
			var got []int
			for len(h) > 0 {
				got = append(got, h.pop().id)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("pop order = %v, want %v", got, c.want)
			}
		})
	}
}

// tieBreakCase is a small scripted workload and the exact order of its
// commit-phase marks.
type tieBreakCase struct {
	name    string
	procs   int
	shardOf []int
	quantum Time
	body    func(e *Engine, p *Proc, mark func(string))
	want    []string
}

// tieBreakCases pins the engine's documented tie-break rules.
var tieBreakCases = []tieBreakCase{
	{
		// Commit order is (suspend time, id): lower clocks first,
		// equal clocks resolved by id regardless of shard or of the
		// order the shards staged their arrivals.
		name:    "commit order by suspend time then id",
		procs:   4,
		shardOf: []int{0, 0, 1, 1},
		quantum: Microsecond,
		body: func(e *Engine, p *Proc, mark func(string)) {
			adv := []Time{30, 10, 10, 20}
			p.Advance(adv[p.ID()]*Nanosecond, StatBusy)
			p.AwaitGlobal()
			mark("commit")
			p.EndGlobal()
		},
		want: []string{"commit:1", "commit:2", "commit:3", "commit:0"},
	},
	{
		// Fast path, yielding side: a committing processor whose
		// (clock, id) is not strictly least re-queues itself behind
		// the queued commit that ties its clock with a lower id.
		name:    "fast path yields to equal clock lower id",
		procs:   2,
		shardOf: []int{0, 1},
		quantum: Microsecond,
		body: func(e *Engine, p *Proc, mark func(string)) {
			if p.ID() == 1 {
				p.Advance(10*Nanosecond, StatBusy)
				p.AwaitGlobal()
				mark("A")
				p.Advance(10*Nanosecond, StatBusy) // clock now ties p0's
				p.AwaitGlobal()
				mark("B")
				p.EndGlobal()
				p.EndGlobal()
				return
			}
			p.Advance(20*Nanosecond, StatBusy)
			p.AwaitGlobal()
			mark("A")
			p.EndGlobal()
		},
		want: []string{"A:1", "A:0", "B:1"},
	},
	{
		// Fast path, continuing side: with the ids reversed the
		// committing processor is strictly (clock, id)-less than the
		// queued commit and keeps executing without a handoff.
		name:    "fast path continues on equal clock higher queued id",
		procs:   2,
		shardOf: []int{0, 1},
		quantum: Microsecond,
		body: func(e *Engine, p *Proc, mark func(string)) {
			if p.ID() == 0 {
				p.Advance(10*Nanosecond, StatBusy)
				p.AwaitGlobal()
				mark("A")
				p.Advance(10*Nanosecond, StatBusy)
				p.AwaitGlobal()
				mark("B")
				p.EndGlobal()
				p.EndGlobal()
				return
			}
			p.Advance(20*Nanosecond, StatBusy)
			p.AwaitGlobal()
			mark("A")
			p.EndGlobal()
		},
		want: []string{"A:0", "B:0", "A:1"},
	},
	{
		// Wakes to the same virtual instant resume in id order.
		name:    "equal-time wakes resume by id",
		procs:   3,
		shardOf: []int{0, 0, 0},
		quantum: Microsecond,
		body: func(e *Engine, p *Proc, mark func(string)) {
			if p.ID() == 2 {
				p.Advance(50*Nanosecond, StatBusy)
				p.AwaitGlobal()
				p.Wake(e.Proc(1), 100*Nanosecond)
				p.Wake(e.Proc(0), 100*Nanosecond)
				mark("waker")
				p.EndGlobal()
				return
			}
			p.Block()
			mark("woke")
		},
		want: []string{"waker:2", "woke:0", "woke:1"},
	},
	{
		// A global section spanning several window edges stays on the
		// serial commit chain: the two sections interleave only at
		// yield points (window-edge advances), exactly like the
		// cooperative serial schedule, and never run concurrently.
		// Before the carryover fix a section crossing a window edge
		// resumed on its shard's phase-1 chain and raced.
		name:    "sections span window edges on the commit chain",
		procs:   2,
		shardOf: []int{0, 1},
		quantum: 100 * Nanosecond,
		body: func(e *Engine, p *Proc, mark func(string)) {
			p.AwaitGlobal()
			mark("begin")
			for i := 0; i < 5; i++ {
				p.Advance(60*Nanosecond, StatBusy)
			}
			mark("end")
			p.EndGlobal()
		},
		want: []string{"begin:0", "begin:1", "end:0", "end:1"},
	},
}

// TestSchedulerTieBreakTable runs each tie-break case end to end with two
// host workers (the schedule is identical at any worker count) and asserts
// the exact order of its commit-phase marks.
func TestSchedulerTieBreakTable(t *testing.T) {
	for _, c := range tieBreakCases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(c.procs, c.quantum)
			if order := c.run(t, e, 2); !reflect.DeepEqual(order, c.want) {
				t.Errorf("mark order = %v, want %v", order, c.want)
			}
		})
	}
}

// run runs the case on e, which has c.procs processors and c.quantum, with
// the given worker count, and returns its marks in order.
func (c tieBreakCase) run(t *testing.T, e *Engine, workers int) []string {
	t.Helper()
	e.SetShards(c.shardOf, maxShard(c.shardOf)+1)
	e.SetWorkers(workers) // marks happen in sections, so logging is serialized
	var order []string
	if err := e.Run(func(p *Proc) {
		c.body(e, p, func(s string) {
			order = append(order, s+":"+string(rune('0'+p.ID())))
		})
	}); err != nil {
		t.Fatal(err)
	}
	return order
}

func maxShard(shardOf []int) int {
	m := 0
	for _, s := range shardOf {
		if s > m {
			m = s
		}
	}
	return m
}
