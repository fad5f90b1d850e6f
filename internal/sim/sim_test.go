package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestAdvanceChargesBuckets(t *testing.T) {
	e := NewEngine(1, 0)
	err := e.Run(func(p *Proc) {
		p.Advance(100*Nanosecond, StatBusy)
		p.Advance(50*Nanosecond, StatMemory)
		p.Advance(25*Nanosecond, StatSync)
	})
	if err != nil {
		t.Fatal(err)
	}
	p := e.Proc(0)
	if got := p.Stat(StatBusy); got != 100*Nanosecond {
		t.Errorf("busy = %v, want 100ns", got)
	}
	if got := p.Stat(StatMemory); got != 50*Nanosecond {
		t.Errorf("memory = %v, want 50ns", got)
	}
	if got := p.Stat(StatSync); got != 25*Nanosecond {
		t.Errorf("sync = %v, want 25ns", got)
	}
	if got := p.Total(); got != 175*Nanosecond {
		t.Errorf("total = %v, want 175ns", got)
	}
	if got := p.Now(); got != 175*Nanosecond {
		t.Errorf("now = %v, want 175ns", got)
	}
}

func TestSchedulerRunsLowestClockFirst(t *testing.T) {
	// Processor 0 advances in large steps, processor 1 in small ones.
	// With a tiny quantum the interleaving must follow virtual time.
	e := NewEngine(2, 10*Nanosecond)
	var order []int
	err := e.Run(func(p *Proc) {
		step := Time(100+900*p.ID()) * Nanosecond // p0: 100ns, p1: 1000ns
		for i := 0; i < 5; i++ {
			order = append(order, p.ID())
			p.Advance(step, StatBusy)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// p0 takes 5 steps of 100ns; p1 takes 5 steps of 1000ns. All of p0's
	// steps except possibly the first interleave before p1's second step.
	count0Before := 0
	for i, id := range order {
		if id == 1 && i > 2 {
			break
		}
		if id == 0 {
			count0Before++
		}
	}
	if count0Before < 3 {
		t.Errorf("expected p0 to run ahead of slow p1, order = %v", order)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() [4]Time {
		e := NewEngine(4, 0)
		err := e.Run(func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Advance(Time(1+p.ID()*7+i%13)*Nanosecond, StatBusy)
				p.Advance(Time(300)*Nanosecond, StatMemory)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var out [4]Time
		for i := range out {
			out[i] = e.Proc(i).Now()
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic clocks: %v vs %v", a, b)
	}
}

func TestBlockWake(t *testing.T) {
	e := NewEngine(2, 0)
	err := e.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Block() // woken by p1 at 500ns
			if p.Now() < 500*Nanosecond {
				t.Errorf("p0 woke at %v, want >= 500ns", p.Now())
			}
		} else {
			p.Advance(500*Nanosecond, StatBusy)
			q := p.Engine().Proc(0)
			for !q.Blocked() {
				p.Advance(10*Nanosecond, StatBusy)
			}
			p.Wake(q, p.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine(2, 0)
	err := e.Run(func(p *Proc) {
		p.Block() // nobody ever wakes anyone
	})
	d, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if len(d.Blocked) != 2 {
		t.Errorf("blocked = %v, want both processors", d.Blocked)
	}
}

// laneGrid is the worker x shard grid the abandonment tests cover: the
// serial lane alone (workers 1, or one shard) and helper lanes with
// stealing (workers 2 over 4 shards).
var laneGrid = []struct{ workers, shards int }{{1, 1}, {1, 4}, {2, 1}, {2, 4}}

// newGridEngine builds an 8-processor engine with processor i in shard
// i % shards.
func newGridEngine(workers, shards int) *Engine {
	e := NewEngine(8, 0)
	shardOf := make([]int, 8)
	for i := range shardOf {
		shardOf[i] = i % shards
	}
	e.SetShards(shardOf, shards)
	e.SetWorkers(workers)
	return e
}

// checkReleased asserts an abandoned run left nothing behind: the goroutine
// count returns to before (lane helpers and processor coroutines all
// exited), and a clean Run on the same engine completes every processor.
func checkReleased(t *testing.T, e *Engine, before int) {
	t.Helper()
	n := runtime.NumGoroutine()
	// A helper goroutine may still be returning after its final report.
	for i := 0; i < 100 && n > before; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Errorf("goroutines leaked: before=%d after=%d", before, n)
	}
	if err := e.Run(func(p *Proc) { p.Advance(Nanosecond, StatBusy) }); err != nil {
		t.Fatalf("clean Run after abandonment: %v", err)
	}
	for _, p := range e.Procs() {
		if !p.finished {
			t.Errorf("clean Run after abandonment left proc %d unfinished", p.ID())
		}
	}
}

func TestDeadlockReleasesGoroutines(t *testing.T) {
	for _, g := range laneGrid {
		t.Run(fmt.Sprintf("workers=%d/shards=%d", g.workers, g.shards), func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := newGridEngine(g.workers, g.shards)
			err := e.Run(func(p *Proc) {
				p.Advance(Time(1+p.ID())*Nanosecond, StatBusy)
				if p.ID()%2 == 0 {
					p.Block() // never woken
				}
			})
			d, ok := err.(*DeadlockError)
			if !ok {
				t.Fatalf("err = %v, want *DeadlockError", err)
			}
			if want := []int{0, 2, 4, 6}; !reflect.DeepEqual(d.Blocked, want) {
				t.Errorf("blocked = %v, want %v", d.Blocked, want)
			}
			checkReleased(t, e, before)
		})
	}
}

// TestEngineReusableAfterDeadlock abandons several runs in a row on one
// engine — deadlock, panic, deadlock — with a clean Run after each, so no
// coroutine or helper of an abandoned run can disturb any later one.
func TestEngineReusableAfterDeadlock(t *testing.T) {
	for _, g := range laneGrid {
		t.Run(fmt.Sprintf("workers=%d/shards=%d", g.workers, g.shards), func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := newGridEngine(g.workers, g.shards)
			for round := 0; round < 3; round++ {
				if round == 1 {
					func() {
						defer func() {
							if r := recover(); r != "boom" {
								t.Fatalf("recovered %v, want boom", r)
							}
						}()
						_ = e.Run(func(p *Proc) {
							if p.ID() == 5 {
								panic("boom")
							}
							p.Advance(Nanosecond, StatBusy)
						})
					}()
				} else {
					err := e.Run(func(p *Proc) {
						if p.ID() == 3 {
							p.Block()
						}
					})
					if _, ok := err.(*DeadlockError); !ok {
						t.Fatalf("round %d: err = %v, want *DeadlockError", round, err)
					}
				}
				checkReleased(t, e, before)
			}
		})
	}
}

// TestCountersAddCoversEveryField sets every field of a Counters via
// reflection and checks Add accumulates each one, so a newly added counter
// cannot be silently dropped from aggregated results.
func TestCountersAddCoversEveryField(t *testing.T) {
	var src Counters
	rv := reflect.ValueOf(&src).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if f.Kind() != reflect.Int64 {
			t.Fatalf("Counters.%s: unexpected kind %v (update this test and Add)",
				rv.Type().Field(i).Name, f.Kind())
		}
		f.SetInt(int64(i + 1))
	}
	var dst Counters
	dst.Add(&src)
	dst.Add(&src) // twice: catches '=' written instead of '+='
	rd := reflect.ValueOf(&dst).Elem()
	for i := 0; i < rd.NumField(); i++ {
		if got, want := rd.Field(i).Int(), int64(2*(i+1)); got != want {
			t.Errorf("Counters.Add drops or mis-accumulates field %s: got %d, want %d",
				rd.Type().Field(i).Name, got, want)
		}
	}
}

// TestPanicPropagates re-raises a processor's panic on Run's caller across
// the lane grid. Two extra cases pin the helper-lane paths: a panic raised
// in a phase-1 chain on lane 1, and two shards panicking in one window,
// where the lowest processor id's panic must win whichever lane reports
// first.
func TestPanicPropagates(t *testing.T) {
	type pcase struct {
		name            string
		workers, shards int
		panickers       []int
		wantLane        int // lane the first panicker must run on; -1 for any
	}
	var cases []pcase
	for _, g := range laneGrid {
		cases = append(cases, pcase{fmt.Sprintf("workers=%d/shards=%d", g.workers, g.shards), g.workers, g.shards, []int{1}, -1})
	}
	cases = append(cases,
		pcase{"phase1-lane1", 2, 4, []int{1}, 1},
		pcase{"two-shards-one-window", 2, 4, []int{1, 2}, 1},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := newGridEngine(c.workers, c.shards)
			var raised atomic.Int32
			func() {
				defer func() {
					want := fmt.Sprintf("boom %d", c.panickers[0])
					if r := recover(); r != want {
						t.Fatalf("recovered %v, want %s", r, want)
					}
				}()
				_ = e.Run(func(p *Proc) {
					for _, id := range c.panickers {
						if p.ID() != id {
							continue
						}
						if c.wantLane >= 0 && id == c.panickers[0] && (p.lane != c.wantLane || p.mode != modePhase1) {
							t.Errorf("proc %d runs on lane %d mode %d, want phase 1 on lane %d", id, p.lane, p.mode, c.wantLane)
						}
						raised.Add(1)
						panic(fmt.Sprintf("boom %d", id))
					}
					p.Advance(Nanosecond, StatBusy)
				})
			}()
			if got := int(raised.Load()); c.wantLane >= 0 && got != len(c.panickers) {
				t.Errorf("%d of %d panickers ran before the run was abandoned", got, len(c.panickers))
			}
			checkReleased(t, e, before)
		})
	}
}

func TestResourceQueueing(t *testing.T) {
	var r Resource
	// Two back-to-back transactions at t=0: second queues behind first.
	s1 := r.Acquire(0, 100)
	s2 := r.Acquire(0, 100)
	if s1 != 0 || s2 != 100 {
		t.Errorf("starts = %d,%d; want 0,100", s1, s2)
	}
	// A transaction arriving after the backlog drains starts immediately.
	s3 := r.Acquire(500, 100)
	if s3 != 500 {
		t.Errorf("start = %d, want 500", s3)
	}
	if r.Busy() != 300 {
		t.Errorf("busy = %d, want 300", r.Busy())
	}
	if r.Queued() != 100 {
		t.Errorf("queued = %d, want 100", r.Queued())
	}
}

func TestResourceMonotonicProperty(t *testing.T) {
	// Property: service starts never precede arrivals, and never precede
	// the previous transaction's completion.
	f := func(arrivals []uint32, occ []uint16) bool {
		var r Resource
		var prevEnd Time
		for i, a := range arrivals {
			if len(occ) == 0 {
				return true
			}
			o := Time(occ[i%len(occ)]) + 1
			t := Time(a)
			start := r.Acquire(t, o)
			if start < t || start < prevEnd {
				return false
			}
			prevEnd = start + o
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineReset(t *testing.T) {
	e := NewEngine(2, 0)
	if err := e.Run(func(p *Proc) { p.Advance(Microsecond, StatBusy) }); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	for _, p := range e.Procs() {
		if p.Now() != 0 || p.Total() != 0 {
			t.Errorf("proc %d not reset: now=%v total=%v", p.ID(), p.Now(), p.Total())
		}
	}
	// Engine is reusable after Reset.
	if err := e.Run(func(p *Proc) { p.Advance(Nanosecond, StatBusy) }); err != nil {
		t.Fatal(err)
	}
	if got := e.MaxTime(); got != Nanosecond {
		t.Errorf("MaxTime = %v, want 1ns", got)
	}
}

func TestRunAccumulatesAcrossPhases(t *testing.T) {
	e := NewEngine(2, 0)
	for phase := 0; phase < 3; phase++ {
		if err := e.Run(func(p *Proc) { p.Advance(100*Nanosecond, StatBusy) }); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Proc(0).Now(); got != 300*Nanosecond {
		t.Errorf("clock after 3 phases = %v, want 300ns", got)
	}
}
