package core_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"origin2000/internal/core"
	"origin2000/internal/mempolicy"
	"origin2000/internal/scenario"
	"origin2000/internal/sim"
)

// measureRead runs one demand read on processor 0 of a fresh machine with
// the page homed at homeNode, optionally dirty in ownerProc's cache, and
// returns the memory stall.
func measureRead(t *testing.T, procs, homeNode, ownerProc int) sim.Time {
	t.Helper()
	cfg := core.Origin2000(procs)
	m := core.New(cfg)
	arr := m.Alloc("probe", 1024, 8)
	arr.PlaceAtNode(homeNode)
	var stall sim.Time
	err := m.Run(func(p *core.Proc) {
		if p.ID() == ownerProc && ownerProc != 0 {
			p.Write(arr.Addr(0)) // make the line dirty remotely
		}
		if p.ID() == 0 {
			p.Compute(100 * sim.Microsecond) // let any owner write land first
			before := p.Now()
			p.Read(arr.Addr(0))
			stall = p.Now() - before
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return stall
}

func TestTable1LocalLatency(t *testing.T) {
	// Processor 0 is on node 0; a local read miss must cost the paper's
	// 338 ns.
	got := measureRead(t, 64, 0, 0)
	if got != 338*sim.Nanosecond {
		t.Errorf("local miss = %v, want 338ns", got)
	}
}

func TestTable1RemoteCleanLatency(t *testing.T) {
	// Average over all remote homes on the 64-processor machine should
	// land near the paper's 656 ns, and the ratio near 2:1.
	m := core.New(core.Origin2000(64))
	nodes := m.NumNodes()
	var sum sim.Time
	for home := 1; home < nodes; home++ {
		sum += measureRead(t, 64, home, 0)
	}
	avg := sum / sim.Time(nodes-1)
	if avg < 580*sim.Nanosecond || avg > 730*sim.Nanosecond {
		t.Errorf("remote clean avg = %v, want ~656ns", avg)
	}
	ratio := float64(avg) / float64(338*sim.Nanosecond)
	if ratio < 1.7 || ratio > 2.2 {
		t.Errorf("remote/local clean ratio = %.2f, want ~2", ratio)
	}
}

func TestTable1RemoteDirtyLatency(t *testing.T) {
	// Dirty in a third node: 3-hop transaction near the paper's 892 ns.
	var sum sim.Time
	samples := 0
	for home := 1; home < 8; home++ {
		owner := (home + 8) % 16 // a processor on yet another node
		sum += measureRead(t, 64, home, owner*2)
		samples++
	}
	avg := sum / sim.Time(samples)
	if avg < 780*sim.Nanosecond || avg > 1000*sim.Nanosecond {
		t.Errorf("remote dirty avg = %v, want ~892ns", avg)
	}
	ratio := float64(avg) / float64(338*sim.Nanosecond)
	if ratio < 2.3 || ratio > 3.2 {
		t.Errorf("remote/local dirty ratio = %.2f, want ~3", ratio)
	}
}

func TestCacheHitIsFree(t *testing.T) {
	m := core.New(core.Origin2000(2))
	arr := m.Alloc("a", 64, 8)
	err := m.RunOne(func(p *core.Proc) {
		p.Read(arr.Addr(0))
		before := p.Now()
		p.Read(arr.Addr(1)) // same block
		if p.Now() != before {
			t.Errorf("hit advanced the clock by %v", p.Now()-before)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := m.Proc(0).Stats(); c.Hits != 1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", c.Hits, c.Misses())
	}
}

func TestFirstTouchPlacement(t *testing.T) {
	m := core.New(core.Origin2000(64))
	arr := m.Alloc("a", 8192, 8)
	err := m.Run(func(p *core.Proc) {
		if p.ID() == 5 {
			p.Read(arr.Addr(0)) // first touch by proc 5 (node 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	page := mempolicy.PageOf(arr.Addr(0))
	if home := m.PageTable().Choose(page, 0); home != 2 {
		t.Errorf("page homed at node %d, want first-toucher's node 2", home)
	}
}

func TestWriteInvalidatesReaders(t *testing.T) {
	m := core.New(core.Origin2000(8))
	arr := m.Alloc("a", 64, 8)
	arr.PlaceAtNode(0)
	err := m.Run(func(p *core.Proc) {
		switch p.ID() {
		case 1, 2, 3:
			p.Read(arr.Addr(0))
		case 0:
			p.Compute(50 * sim.Microsecond)
			p.Write(arr.Addr(0)) // invalidates 1..3
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Proc(0).Stats().Invalidations; got != 3 {
		t.Errorf("invalidations = %d, want 3", got)
	}
	for i := 1; i <= 3; i++ {
		if m.Proc(i).CacheContains(arr.Addr(0)) {
			t.Errorf("proc %d still caches the invalidated block", i)
		}
	}
}

func TestUpgradeOnWriteAfterRead(t *testing.T) {
	m := core.New(core.Origin2000(2))
	arr := m.Alloc("a", 64, 8)
	err := m.RunOne(func(p *core.Proc) {
		p.Read(arr.Addr(0))
		p.Write(arr.Addr(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := m.Proc(0).Stats(); c.Upgrades != 1 {
		t.Errorf("upgrades = %d, want 1", c.Upgrades)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	// A tiny cache forces capacity evictions of dirty lines.
	cfg := core.Origin2000(2)
	cfg.Cache.SizeBytes = 1024 // 8 lines, 2-way, 4 sets of 128B blocks
	m := core.New(cfg)
	arr := m.Alloc("a", 4096, 8)
	err := m.RunOne(func(p *core.Proc) {
		for i := 0; i < 32; i++ {
			p.Write(arr.Addr(i * 16)) // one write per block
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c := m.Proc(0).Stats()
	if c.Writebacks < 20 {
		t.Errorf("writebacks = %d, want most of the 32 dirty lines", c.Writebacks)
	}
	if err := m.DirectoryCheck(); err != nil {
		t.Error(err)
	}
}

func TestPrefetchOverlapsLatency(t *testing.T) {
	m := core.New(core.Origin2000(64))
	arr := m.Alloc("a", 4096, 8)
	arr.PlaceAtNode(10)
	var prefetched, demand sim.Time
	err := m.RunOne(func(p *core.Proc) {
		// Demand miss for reference.
		before := p.Now()
		p.Read(arr.Addr(0))
		demand = p.Now() - before
		// Prefetch far ahead, compute, then access: no stall.
		p.Prefetch(arr.Addr(64)) // next block
		p.Compute(10 * sim.Microsecond)
		before = p.Now()
		p.Read(arr.Addr(64))
		prefetched = p.Now() - before
	})
	if err != nil {
		t.Fatal(err)
	}
	if prefetched != 0 {
		t.Errorf("prefetched access stalled %v, want 0", prefetched)
	}
	if demand < 500*sim.Nanosecond {
		t.Errorf("demand remote miss = %v, implausibly fast", demand)
	}
	if c := m.Proc(0).Stats(); c.Prefetches != 1 || c.PrefetchHits != 1 {
		t.Errorf("prefetches=%d hits=%d, want 1/1", c.Prefetches, c.PrefetchHits)
	}
}

func TestPrefetchResidualStall(t *testing.T) {
	m := core.New(core.Origin2000(64))
	arr := m.Alloc("a", 4096, 8)
	arr.PlaceAtNode(10)
	err := m.RunOne(func(p *core.Proc) {
		p.Prefetch(arr.Addr(0))
		before := p.Now()
		p.Read(arr.Addr(0)) // immediately: waits the residual fill time
		resid := p.Now() - before
		if resid <= 0 {
			t.Errorf("immediate access after prefetch should stall, got %v", resid)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFetchOpCheaperThanMiss(t *testing.T) {
	m := core.New(core.Origin2000(64))
	arr := m.Alloc("a", 64, 8)
	arr.PlaceAtNode(10)
	var fop, miss sim.Time
	err := m.RunOne(func(p *core.Proc) {
		before := p.Now()
		p.FetchOp(arr.Addr(0))
		fop = p.Now() - before
		before = p.Now()
		p.Read(arr.Addr(8)) // same page, still uncached
		miss = p.Now() - before
	})
	if err != nil {
		t.Fatal(err)
	}
	if fop >= miss {
		t.Errorf("fetch&op (%v) should be cheaper than a full miss (%v)", fop, miss)
	}
}

func TestHubContentionSameNode(t *testing.T) {
	// Two processors of one node hammering memory queue at their shared
	// Hub; the same traffic from processors on different nodes does not.
	// The data lives on node 1 — the same router as the contending pair on
	// node 0 — so their accesses stay shard-local under the windowed engine
	// and the shared outgoing Hub is the only difference between the runs.
	run := func(procB int) sim.Time {
		m := core.New(core.Origin2000(8))
		arr := m.Alloc("a", 1<<16, 8)
		arr.PlaceAtNode(1)
		err := m.Run(func(p *core.Proc) {
			if p.ID() != 0 && p.ID() != procB {
				return
			}
			off := 0
			if p.ID() == procB {
				off = 1 << 14
			}
			for i := 0; i < 200; i++ {
				p.Read(arr.Addr(off + i*16))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Result().HubQueued
	}
	same := run(1) // procs 0,1 share node 0
	diff := run(4) // proc 4 lives on node 2
	if same <= diff {
		t.Errorf("same-node hub queueing (%v) should exceed cross-node (%v)", same, diff)
	}
}

func TestMigrationMakesPageLocal(t *testing.T) {
	cfg := core.Origin2000(8)
	cfg.Placement = mempolicy.RoundRobin
	cfg.IgnorePlacement = true
	cfg.MigrationThreshold = 8
	cfg.Cache.SizeBytes = 1024 // force repeated misses on the same page
	m := core.New(cfg)
	arr := m.Alloc("a", 1<<14, 8)
	err := m.Run(func(p *core.Proc) {
		if p.ID() != 6 { // node 3
			return
		}
		for rep := 0; rep < 4; rep++ {
			for i := 0; i < 256; i++ {
				p.Read(arr.Addr(i * 16))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Result().Migrations; got == 0 {
		t.Error("expected at least one page migration")
	}
}

func TestNodeMemorySpill(t *testing.T) {
	cfg := core.Origin2000(8) // 4 nodes
	cfg.NodeMemBytes = 4 * mempolicy.PageBytes
	m := core.New(cfg)
	arr := m.Alloc("a", 8*mempolicy.PageBytes/8, 8) // 8 pages
	arr.PlaceAtNode(0)                              // wants all on node 0; only 4 fit
	perNode := make([]int, m.NumNodes())
	for pg := 0; pg < arr.Pages(); pg++ {
		page := mempolicy.PageOf(arr.Addr(pg * mempolicy.PageBytes / 8))
		perNode[m.PageTable().Choose(page, 1)]++
	}
	if perNode[0] != 4 || perNode[1] != 4 {
		t.Errorf("pages per node = %v, want [4 4 0 0]", perNode)
	}
}

func TestAllocationsDisjointProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := core.New(core.Origin2000(2))
		type span struct{ lo, hi uint64 }
		var spans []span
		for i, s := range sizes {
			n := int(s)%4096 + 1
			a := m.Alloc("x", n, 8)
			lo, hi := a.Addr(0), a.Addr(n-1)+8
			for _, sp := range spans {
				if lo < sp.hi && sp.lo < hi {
					return false
				}
			}
			spans = append(spans, span{lo, hi})
			if i > 20 {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMachineDeterminism(t *testing.T) {
	run := func() sim.Time {
		m := core.New(core.Origin2000(16))
		arr := m.Alloc("a", 1<<14, 8)
		err := m.Run(func(p *core.Proc) {
			for i := 0; i < 300; i++ {
				idx := (i*17 + p.ID()*131) % (1 << 14)
				if i%3 == 0 {
					p.Write(arr.Addr(idx))
				} else {
					p.Read(arr.Addr(idx))
				}
				p.Compute(100 * sim.Nanosecond)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Elapsed()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic elapsed: %v vs %v", a, b)
	}
}

func TestDirectoryInvariantsAfterRandomSharing(t *testing.T) {
	m := core.New(core.Origin2000(16))
	arr := m.Alloc("a", 1<<12, 8)
	err := m.Run(func(p *core.Proc) {
		for i := 0; i < 200; i++ {
			idx := (i*29 + p.ID()*7) % (1 << 12)
			if (i+p.ID())%4 == 0 {
				p.Write(arr.Addr(idx))
			} else {
				p.Read(arr.Addr(idx))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DirectoryCheck(); err != nil {
		t.Error(err)
	}
}

func TestTable1PresetOrdering(t *testing.T) {
	// The Table 1 machines must order by remote/local ratio as in the
	// paper: Origin (2:1) < HAL S1 (5:1) < NUMALiiNE (10:1).
	probe := func(preset string) (local, remote sim.Time) {
		cfg := core.Origin2000(64)
		cfg.Lat = core.Table1Latencies(preset)
		m := core.New(cfg)
		arr := m.Alloc("a", 4096, 8)
		arr.PlaceAtNode(0)
		far := m.Alloc("b", 4096, 8)
		far.PlaceAtNode(9)
		err := m.RunOne(func(p *core.Proc) {
			before := p.Now()
			p.Read(arr.Addr(0))
			local = p.Now() - before
			before = p.Now()
			p.Read(far.Addr(0))
			remote = p.Now() - before
		})
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	lo, ro := probe("origin2000")
	lh, rh := probe("hal-s1")
	ln, rn := probe("numaliine")
	ratio := func(l, r sim.Time) float64 { return float64(r) / float64(l) }
	if !(ratio(lo, ro) < ratio(lh, rh) && ratio(lh, rh) < ratio(ln, rn)) {
		t.Errorf("ratios not ordered: origin=%.1f hal=%.1f numaline=%.1f",
			ratio(lo, ro), ratio(lh, rh), ratio(ln, rn))
	}
}

// TestTable1LatenciesResolvesPresets pins the preset names in one place:
// Table1Latencies resolves exactly the scenario.LatencyPresets names, each
// to a latency set of its own, and panics naming any other name, so a
// preset the scenario accepts can never fall back to the Origin's
// latencies unnoticed.
func TestTable1LatenciesResolvesPresets(t *testing.T) {
	seen := map[core.Latencies]string{}
	for _, preset := range scenario.LatencyPresets {
		l := core.Table1Latencies(preset)
		if other, dup := seen[l]; dup {
			t.Errorf("presets %q and %q resolve to the same latencies", other, preset)
		}
		seen[l] = preset
	}
	if seen[core.Origin2000Latencies()] != "origin2000" {
		t.Errorf("the origin2000 preset is not the Origin's default latencies")
	}
	for _, bad := range []string{"", "origin", "Origin2000", "hal"} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			core.Table1Latencies(bad)
			return
		}()
		if !strings.Contains(msg, fmt.Sprintf("%q", bad)) {
			t.Errorf("Table1Latencies(%q) recovered %q, want a panic naming the preset", bad, msg)
		}
	}
}

func TestArrayStatsAttribution(t *testing.T) {
	m := core.New(core.Origin2000(8))
	m.EnableArrayStats()
	local := m.Alloc("local.data", 4096, 8)
	local.PlaceAtNode(0)
	remote := m.Alloc("remote.data", 4096, 8)
	remote.PlaceAtNode(3)
	err := m.RunOne(func(p *core.Proc) {
		for i := 0; i < 256; i++ {
			p.Read(local.Addr(i * 16))
			p.Read(remote.Addr(i * 16))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := m.ArrayStats()
	byName := map[string]*core.ArrayStats{}
	for _, a := range stats {
		byName[a.Name] = a
	}
	l, r := byName["local.data"], byName["remote.data"]
	if l == nil || r == nil {
		t.Fatal("allocations missing from stats")
	}
	if l.LocalMisses == 0 || l.Remote() != 0 {
		t.Errorf("local.data: %+v", l)
	}
	if r.Remote() == 0 || r.LocalMisses != 0 {
		t.Errorf("remote.data: %+v", r)
	}
	if r.Stall <= l.Stall {
		t.Errorf("remote stall (%v) should exceed local (%v)", r.Stall, l.Stall)
	}
	rows := m.ArrayReport()
	if len(rows) < 3 {
		t.Errorf("report rows = %d", len(rows))
	}
}

func TestArrayStatsOffByDefault(t *testing.T) {
	m := core.New(core.Origin2000(2))
	arr := m.Alloc("a", 64, 8)
	if err := m.RunOne(func(p *core.Proc) { p.Read(arr.Addr(0)) }); err != nil {
		t.Fatal(err)
	}
	if m.ArrayStats() != nil {
		t.Error("stats should be nil when not enabled")
	}
}

func TestPhaseAttribution(t *testing.T) {
	m := core.New(core.Origin2000(4))
	arr := m.Alloc("a", 1<<14, 8)
	arr.PlaceAtNode(1)
	err := m.Run(func(p *core.Proc) {
		p.SetPhase("compute")
		p.Compute(100 * sim.Microsecond)
		p.SetPhase("communicate")
		for i := 0; i < 64; i++ {
			p.Read(arr.Addr(i*16 + p.ID()*1024))
		}
		p.SetPhase("")
	})
	if err != nil {
		t.Fatal(err)
	}
	ph := m.PhaseBreakdowns()
	if len(ph) != 2 {
		t.Fatalf("phases = %d, want 2", len(ph))
	}
	byName := map[string]core.PhaseBreakdown{}
	for _, b := range ph {
		byName[b.Name] = b
	}
	c := byName["compute"]
	if c.Busy != 4*100*sim.Microsecond || c.Memory != 0 {
		t.Errorf("compute phase = %+v", c.Breakdown)
	}
	comm := byName["communicate"]
	if comm.Memory == 0 || comm.Busy != 0 {
		t.Errorf("communicate phase = %+v", comm.Breakdown)
	}
}

func TestPhaseUnlabeledIsUnattributed(t *testing.T) {
	m := core.New(core.Origin2000(1))
	if err := m.RunOne(func(p *core.Proc) { p.Compute(sim.Microsecond) }); err != nil {
		t.Fatal(err)
	}
	if len(m.PhaseBreakdowns()) != 0 {
		t.Error("no phases were set; report should be empty")
	}
}
