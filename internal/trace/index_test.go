package trace_test

import (
	"testing"

	"origin2000/internal/core"
	"origin2000/internal/experiments"
	"origin2000/internal/mempolicy"
	"origin2000/internal/trace"
)

// TestHeatIndexSizedBeforeRun: Alloc sizes the heat index while no
// processor runs, and a run on the parallel engine with 8 host workers
// that misses, upgrades and invalidates on every allocated page, in shard
// phases and in commit phases, never resizes it.
func TestHeatIndexSizedBeforeRun(t *testing.T) {
	const procs, pages = 32, 16
	cfg := experiments.Scale{Div: 64, CacheDiv: 64, Seed: 42}.Machine(procs)
	cfg.Engine, cfg.Workers = "parallel", 8
	cfg.Trace = trace.Options{Enabled: true}
	m := core.New(cfg)
	tr := m.Tracer()
	if n := trace.HeatPages(tr); n != 0 {
		t.Fatalf("a machine with no allocation sized %d pages", n)
	}
	data := m.Alloc("data", pages*mempolicy.PageBytes/8, 8)
	flags := m.Alloc("flags", procs, core.BlockBytes)
	data.PlaceBlocked(procs)
	sized := trace.HeatPages(tr)
	if want := pages + 1; sized != want {
		t.Fatalf("Alloc sized %d pages, want %d", sized, want)
	}
	stride := core.BlockBytes / 8
	err := m.Run(func(p *core.Proc) {
		for round := 0; round < 3; round++ {
			for i := 0; i < data.Len(); i += stride {
				idx := (i + p.ID()*97*stride) % data.Len()
				if (idx/stride+round+p.ID())%3 == 0 {
					p.Write(data.Addr(idx))
				} else {
					p.Read(data.Addr(idx))
				}
			}
			p.Write(flags.Addr(p.ID()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := trace.HeatPages(tr); got != sized {
		t.Errorf("the run resized the heat index from %d to %d pages", sized, got)
	}
	if got := len(tr.TopPages(0)); got != pages+1 {
		t.Errorf("heat on %d pages, want every one of the %d allocated", got, pages+1)
	}
	if sh := m.SchedShape(); sh.ShardChains == 0 {
		t.Error("no shard chain ran; the test needs phase-1 recording")
	}
}
