package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestWorkerInvarianceStress runs a seeded pseudo-random workload — mixed
// advances, global sections, resource acquires, blocks and cross-shard
// wakes — at several worker counts and requires bit-identical statistics.
func TestWorkerInvarianceStress(t *testing.T) {
	type snap struct {
		Now   []Time
		Stats [][numStats]Time
		Acq   []int64
	}
	run := func(t *testing.T, workers int, seed uint64, procs, shards int, window Time) snap {
		e := NewEngine(procs, window)
		shardOf := make([]int, procs)
		for i := range shardOf {
			shardOf[i] = i % shards
		}
		e.SetShards(shardOf, shards)
		e.SetWorkers(workers)
		res := make([]Resource, shards)
		if err := e.Run(stressBody(seed, procs, res)); err != nil {
			t.Fatalf("workers=%d seed=%d: %v", workers, seed, err)
		}
		var s snap
		for _, p := range e.Procs() {
			s.Now = append(s.Now, p.Now())
			s.Stats = append(s.Stats, p.stats)
		}
		for i := range res {
			s.Acq = append(s.Acq, res[i].Acquires())
		}
		return s
	}
	shapes := []struct {
		procs, shards int
		window        Time
	}{
		{12, 4, 500 * Nanosecond},
		{12, 4, 5 * Microsecond},
		{16, 2, 200 * Nanosecond},
		{8, 8, 1 * Microsecond},
		{6, 1, 300 * Nanosecond},
	}
	for si, sh := range shapes {
		sh := sh
		t.Run(fmt.Sprintf("shape%d", si), func(t *testing.T) {
			for seed := uint64(1); seed <= 40; seed++ {
				ref := run(t, 1, seed, sh.procs, sh.shards, sh.window)
				for _, w := range []int{2, 4, 8} {
					got := run(t, w, seed, sh.procs, sh.shards, sh.window)
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("seed %d: workers=%d diverges from workers=1\nref %+v\ngot %+v", seed, w, ref, got)
					}
				}
			}
		})
	}
}

// stressBody returns the stress program's processor body for an engine of
// procs processors with one resource per shard: seeded mixed advances,
// global sections, shard-local and cross-shard resource acquires, blocks
// and cross-shard wakes.
func stressBody(seed uint64, procs int, res []Resource) func(p *Proc) {
	shards := len(res)
	var blocked []*Proc // guarded by global sections only
	runners := procs    // procs neither blocked nor retired
	return func(p *Proc) {
		rng := seed ^ uint64(p.ID())*0x9e3779b97f4a7c15
		next := func(n uint64) uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng % n
		}
		for i := 0; i < 200; i++ {
			switch next(6) {
			case 0, 1:
				p.Advance(Time(10+next(300))*Nanosecond, StatBusy)
			case 2:
				// Shard-local resource acquire.
				s := p.Shard()
				start := res[s].Acquire(p.Now(), Time(next(50))*Nanosecond)
				p.AdvanceTo(start, StatMemory)
			case 3:
				// Cross-shard work under a global section.
				p.AwaitGlobal()
				s := int(next(uint64(shards)))
				start := res[s].Acquire(p.Now(), Time(next(50))*Nanosecond)
				p.AdvanceTo(start+20*Nanosecond, StatMemory)
				p.EndGlobal()
			case 4:
				// Maybe wake a blocked peer (cross-shard allowed).
				p.AwaitGlobal()
				if len(blocked) > 0 {
					q := blocked[len(blocked)-1]
					blocked = blocked[:len(blocked)-1]
					runners++
					p.Wake(q, p.Now()+Time(next(200))*Nanosecond)
				}
				p.EndGlobal()
			case 5:
				// Block and wait for a peer. Safe whenever at least
				// one other processor is still runnable: the last
				// runnable processor never blocks, and its epilogue
				// drains the blocked list before it retires.
				p.AwaitGlobal()
				if runners > 1 && len(blocked) < 8 {
					blocked = append(blocked, p)
					runners--
					p.EndGlobal()
					p.Block()
				} else {
					p.EndGlobal()
				}
			}
		}
		// Epilogue: drain any still-blocked peers, then retire.
		p.AwaitGlobal()
		for len(blocked) > 0 {
			q := blocked[len(blocked)-1]
			blocked = blocked[:len(blocked)-1]
			runners++
			p.Wake(q, p.Now())
		}
		runners--
		p.EndGlobal()
	}
}
