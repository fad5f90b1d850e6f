package sim

import (
	"fmt"
	"slices"
	"testing"
)

// turnoverCheck is a quiescent hook that checks round turnover at every
// round open. waitAt must hold each runnable processor's clock and
// notRunnable for a blocked or finished one. A window must have listed
// exactly the shards it should have queued, in ascending order (the order
// startNextChain claims them in), and dispatched one chain per listed
// shard.
type turnoverCheck struct {
	t *testing.T
	e *Engine

	// What the previous round open expects of the window it opens: the
	// shards with phase-1 work, and the engine's window and chain counts
	// just before it.
	want            []int32
	windows, chains int64
	raSpans         int64

	// Coverage: windows checked, run-ahead spans entered, and run-ahead
	// spans ended by a cross-shard wake.
	checked, raEntries, raExits int

	// failed stops the checks after the first failure. The hook may run
	// inside a processor's coroutine, so it reports with Errorf and lets
	// the run finish rather than stopping the test goroutine.
	failed bool
}

func (c *turnoverCheck) fail(format string, args ...any) {
	c.failed = true
	c.t.Errorf(format, args...)
}

// watchTurnover installs a turnoverCheck on e.
func watchTurnover(t *testing.T, e *Engine) *turnoverCheck {
	c := &turnoverCheck{t: t, e: e}
	e.SetQuiescentHook(c.round)
	return c
}

func (c *turnoverCheck) round(seq int64, minNow Time, _ bool) {
	if c.failed {
		return
	}
	e := c.e
	for _, p := range e.procs {
		want := p.now
		if p.blocked || p.finished {
			want = notRunnable
		}
		if got := e.waitAt[p.id]; got != want {
			c.fail("round %d: waitAt[%d] = %v, want %v (blocked %v, finished %v)",
				seq, p.id, got, want, p.blocked, p.finished)
			return
		}
	}
	c.closeRound(seq)

	// Expect the round this open starts: a window unless every runnable
	// processor sits in one shard.
	c.windows, c.chains, c.raSpans = e.windows, e.shardChains.Load(), e.raSpans
	end := minNow - minNow%e.window + e.window
	var shards, queued []int32
	for _, p := range e.procs {
		if p.blocked || p.finished {
			continue
		}
		s := e.shardOf[p.id]
		if !slices.Contains(shards, s) {
			shards = append(shards, s)
		}
		if p.now < end && p.global == 0 && !slices.Contains(queued, s) {
			queued = append(queued, s)
		}
	}
	c.want = nil
	if len(shards) > 1 {
		slices.Sort(queued)
		c.want = queued
	}
}

// closeRound checks the round the previous open started, now that it is
// over.
func (c *turnoverCheck) closeRound(seq int64) {
	e := c.e
	switch {
	case e.raSpans == c.raSpans+1:
		c.raEntries++
		if e.raExit {
			c.raExits++
		}
	case e.windows == c.windows+1:
		c.checked++
		if !slices.IsSorted(e.active) || !slices.Equal(e.active, c.want) {
			c.fail("round %d: the previous window listed shards %v, want %v in ascending order", seq, e.active, c.want)
		}
		if got := e.shardChains.Load() - c.chains; got != int64(len(e.active)) {
			c.fail("round %d: the previous window dispatched %d chains for %d active shards", seq, got, len(e.active))
		}
	}
}

// barrierBody returns a program of rounds barrier episodes: uneven work,
// then a barrier whose last arrival releases every waiter with one
// WakeBatch. Shard 0's processors work longest, so the others wait at the
// barrier while shard 0 runs ahead alone, and its release wakes processors
// of every other shard.
func barrierBody(procs, rounds int) func(p *Proc) {
	var waiting []*Proc // guarded by global sections
	return func(p *Proc) {
		for r := 0; r < rounds; r++ {
			work := Time(100+37*((p.ID()*7+r*3)%11)) * Nanosecond
			if p.Shard() == 0 {
				work += 5 * Microsecond
			}
			p.Advance(work, StatBusy)
			p.AwaitGlobal()
			if len(waiting) < procs-1 {
				waiting = append(waiting, p)
				p.EndGlobal()
				p.Block()
				continue
			}
			qs := waiting
			waiting = nil
			p.WakeBatch(qs, p.Now()+50*Nanosecond)
			p.EndGlobal()
		}
	}
}

// TestRoundTurnoverInvariant runs the stress, tie-break and barrier
// programs at 1 and 2 workers with turnoverCheck installed, and requires
// that together they checked windows, entered run-ahead and left it on a
// cross-shard wake.
func TestRoundTurnoverInvariant(t *testing.T) {
	var checked, raEntries, raExits int
	tally := func(c *turnoverCheck) {
		checked += c.checked
		raEntries += c.raEntries
		raExits += c.raExits
	}
	newEngine := func(procs, shards int, window Time) *Engine {
		e := NewEngine(procs, window)
		shardOf := make([]int, procs)
		for i := range shardOf {
			shardOf[i] = i % shards
		}
		e.SetShards(shardOf, shards)
		return e
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			for _, sh := range []struct {
				procs, shards int
				window        Time
			}{
				{12, 4, 500 * Nanosecond},
				{16, 2, 200 * Nanosecond},
				{8, 8, 1 * Microsecond},
				{6, 1, 300 * Nanosecond},
				{130, 65, 1 * Microsecond}, // the busy bitset's second word
			} {
				for seed := uint64(1); seed <= 8; seed++ {
					e := newEngine(sh.procs, sh.shards, sh.window)
					e.SetWorkers(workers)
					c := watchTurnover(t, e)
					if err := e.Run(stressBody(seed, sh.procs, make([]Resource, sh.shards))); err != nil {
						t.Fatalf("stress %d/%d seed %d: %v", sh.procs, sh.shards, seed, err)
					}
					tally(c)
				}
			}
			for _, tc := range tieBreakCases {
				e := NewEngine(tc.procs, tc.quantum)
				c := watchTurnover(t, e)
				if order := tc.run(t, e, workers); !slices.Equal(order, tc.want) {
					t.Fatalf("%s: mark order %v, want %v", tc.name, order, tc.want)
				}
				tally(c)
			}
			for _, sh := range [][2]int{{8, 4}, {16, 8}, {6, 3}} {
				e := newEngine(sh[0], sh[1], 500*Nanosecond)
				e.SetWorkers(workers)
				c := watchTurnover(t, e)
				if err := e.Run(barrierBody(sh[0], 20)); err != nil {
					t.Fatalf("barrier %d/%d: %v", sh[0], sh[1], err)
				}
				if c.raExits == 0 {
					t.Errorf("barrier %d/%d: no run-ahead span ended on a cross-shard WakeBatch", sh[0], sh[1])
				}
				tally(c)
			}
		})
	}
	t.Logf("checked %d windows; %d run-ahead spans, %d ended by a cross-shard wake", checked, raEntries, raExits)
	if checked == 0 || raEntries == 0 || raExits == 0 {
		t.Errorf("checked %d windows, entered run-ahead %d times and left it on a cross-shard wake %d times; want each above 0",
			checked, raEntries, raExits)
	}
}
