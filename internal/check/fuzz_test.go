package check_test

import (
	"strings"
	"testing"

	"origin2000/internal/cache"
	"origin2000/internal/check"
	"origin2000/internal/core"
	"origin2000/internal/directory"
	"origin2000/internal/mempolicy"
)

// runTrace replays a trace on a fresh machine with the online checker on,
// optionally with a directory fault injected, and returns the checker
// error (nil = no violation). The engine is deterministic, so the same
// trace and fault always produce the same result — the property the
// shrinker relies on.
func runTrace(tr check.Trace, fault func(block uint64, proc int) bool) error {
	tr.Normalize()
	cfg := core.Config{
		Procs:        tr.Procs,
		ProcsPerNode: 2,
		// A tiny cache forces evictions, so replacement hints and
		// writebacks run constantly alongside the sharing traffic.
		Cache:              cache.Config{SizeBytes: 8 << 10, BlockBytes: 128, Assoc: 2},
		Placement:          tr.Policy,
		MigrationThreshold: tr.Migrate,
		Check:              true,
	}
	m := core.New(cfg)
	if fault != nil {
		m.FaultDropInvalidation(fault)
	}
	blocks := tr.Blocks()
	elemsPerBlock := core.BlockBytes / 8
	arr := m.Alloc("fuzz", blocks*elemsPerBlock, 8)
	nodes := m.NumNodes()
	return m.Run(func(p *core.Proc) {
		for _, op := range tr.Ops {
			if int(op.Proc) != p.ID() {
				continue
			}
			addr := arr.Addr(tr.Block(op) * elemsPerBlock)
			switch op.Kind {
			case check.OpRead:
				p.Read(addr)
			case check.OpWrite:
				p.Write(addr)
			case check.OpPrefetch:
				p.Prefetch(addr)
			case check.OpFetchOp:
				p.FetchOp(addr)
			case check.OpRehome:
				page := mempolicy.PageOf(arr.Base()) + uint64(int(op.Loc)%tr.Pages)
				m.PageTable().SetHome(page, (int(op.Loc)/tr.Pages)%nodes)
			}
		}
	})
}

// TestFuzzProtocol is the deterministic counterpart of the native fuzz
// target: seeded random traces across the supported processor range, every
// one of which must replay violation-free with the checker on.
func TestFuzzProtocol(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	procCounts := []int{2, 3, 4, 8, 16, 32, 64, 128}
	for s := 0; s < seeds; s++ {
		cfg := check.GenConfig{
			Procs:      procCounts[s%len(procCounts)],
			Ops:        600,
			Pages:      1 + s%4,
			Migrate:    map[bool]int{true: 8, false: 0}[s%3 == 0],
			RoundRobin: s%2 == 1,
		}
		tr := check.Generate(int64(1000+s), cfg)
		if err := runTrace(tr, nil); err != nil {
			t.Fatalf("seed %d (procs=%d, pages=%d, migrate=%d): %v",
				s, cfg.Procs, cfg.Pages, cfg.Migrate, err)
		}
	}
}

// TestFuzzReplayIsDeterministic re-runs one trace and requires the identical
// outcome, including the checker's event count — the bit-identical replay
// property shrinking depends on.
func TestFuzzReplayIsDeterministic(t *testing.T) {
	tr := check.Generate(7, check.GenConfig{Procs: 16, Ops: 500, Pages: 2, Migrate: 8})
	events := func() int64 {
		tr2 := tr
		cfg := core.Config{Procs: tr2.Procs, ProcsPerNode: 2,
			Cache: cache.Config{SizeBytes: 8 << 10, BlockBytes: 128, Assoc: 2}, Check: true}
		m := core.New(cfg)
		elems := core.BlockBytes / 8
		arr := m.Alloc("fuzz", tr2.Blocks()*elems, 8)
		if err := m.Run(func(p *core.Proc) {
			for _, op := range tr2.Ops {
				if int(op.Proc) == p.ID() && op.Kind == check.OpWrite {
					p.Write(arr.Addr(tr2.Block(op) * elems))
				} else if int(op.Proc) == p.ID() {
					p.Read(arr.Addr(tr2.Block(op) * elems))
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		return m.Checker().Events()
	}
	a, b := events(), events()
	if a != b || a == 0 {
		t.Fatalf("replay diverged: %d vs %d events", a, b)
	}
}

// TestFuzzCatchesSeededLostInvalidation seeds the classic protocol bug —
// Directory.Write dropping one invalidation — and requires the fuzzer to
// find it, then shrinks the failing trace to a minimal regression case.
func TestFuzzCatchesSeededLostInvalidation(t *testing.T) {
	fault := func(block uint64, proc int) bool { return proc == 1 }
	fails := func(tr check.Trace) bool { return runTrace(tr, fault) != nil }

	var failing *check.Trace
	for s := 0; s < 50 && failing == nil; s++ {
		tr := check.Generate(int64(s), check.GenConfig{Procs: 4, Ops: 200, Pages: 1})
		if fails(tr) {
			failing = &tr
		}
	}
	if failing == nil {
		t.Fatal("fuzzer did not catch the seeded lost invalidation in 50 seeds")
	}

	min := check.Shrink(*failing, fails)
	if !fails(min) {
		t.Fatal("shrunk trace no longer fails")
	}
	if len(min.Ops) > 8 {
		t.Errorf("shrink left %d ops (want <= 8):\n%s", len(min.Ops), min.GoSource())
	}
	t.Logf("minimal counterexample (%d ops):\n%s", len(min.Ops), min.GoSource())
	if src := min.GoSource(); !strings.Contains(src, "check.Op") {
		t.Fatalf("GoSource did not render a reusable literal: %s", src)
	}
}

// TestShrunkRegressionTrace pins the literal the shrinker converges to for
// the dropped-invalidation fault (the exact GoSource output of
// TestFuzzCatchesSeededLostInvalidation): reader p1 joins the sharer set,
// then p2's write must invalidate p1 but does not. This is the "paste the
// shrunk literal back in" workflow DESIGN.md §8 describes.
func TestShrunkRegressionTrace(t *testing.T) {
	tr := check.Trace{
		Procs: 3, Policy: mempolicy.FirstTouch, Migrate: 0, Pages: 1,
		Ops: []check.Op{
			{Proc: 1, Kind: check.OpRead, Loc: 0},
			{Proc: 2, Kind: check.OpWrite, Loc: 0},
		},
	}
	if err := runTrace(tr, nil); err != nil {
		t.Fatalf("healthy protocol fails the regression trace: %v", err)
	}
	err := runTrace(tr, func(block uint64, proc int) bool { return proc == 1 })
	if err == nil {
		t.Fatal("dropped invalidation not caught on the minimal trace")
	}
	for _, want := range []string{"block", "history", "clocks"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("violation report lacks %q:\n%v", want, err)
		}
	}
}

// TestCheckerAlsoCatchesDroppedDowngrade seeds a different bug class than
// the fuzz test — state corruption rather than a lost message — through the
// directory's own audit path.
func TestDirectoryAuditSeesCorruptedEntry(t *testing.T) {
	d := directory.New()
	d.Read(5, 3)
	d.Write(9, 200) // out-of-range owner is clamped by int16 but invalid
	if err := d.Check(); err == nil {
		t.Fatal("Check accepted an owner outside MaxProcs")
	}
}

// FuzzProtocol is the native fuzz target: arbitrary bytes decode (with
// clamping) into a trace that must replay violation-free. Run it with
//
//	go test -fuzz=FuzzProtocol -fuzztime=20s ./internal/check
func FuzzProtocol(f *testing.F) {
	for _, tr := range []check.Trace{
		check.Generate(1, check.GenConfig{Procs: 4, Ops: 120, Pages: 1}),
		check.Generate(2, check.GenConfig{Procs: 16, Ops: 200, Pages: 2, Migrate: 8}),
		check.Generate(3, check.GenConfig{Procs: 64, Ops: 150, Pages: 4, RoundRobin: true}),
	} {
		f.Add(tr.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4+4*maxFuzzOps {
			data = data[:4+4*maxFuzzOps]
		}
		tr := check.DecodeTrace(data)
		if len(tr.Ops) > maxFuzzOps {
			tr.Ops = tr.Ops[:maxFuzzOps]
		}
		if err := runTrace(tr, nil); err != nil {
			t.Fatalf("protocol violation:\n%v\nreproduce with:\n%s", err, tr.GoSource())
		}
	})
}

// maxFuzzOps bounds per-input work so the fuzzer explores many inputs
// rather than a few giant ones.
const maxFuzzOps = 800
