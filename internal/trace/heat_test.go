package trace

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"origin2000/internal/pagearray"
	"origin2000/internal/sim"
)

// heatEvent is one heat-bearing tracer call: a miss, a received
// invalidation or a page move.
type heatEvent struct {
	kind        Kind // a miss class, EvInvalRecv or EvPageMigration
	proc, other int
	block       uint64
	lat         sim.Time
	invals      int
	sharers     int
}

func (e heatEvent) page() uint64 { return e.block >> pagearray.PageBlockShift }

func (e heatEvent) apply(tr *Tracer, at sim.Time) {
	switch e.kind {
	case EvInvalRecv:
		tr.InvalRecv(e.proc, at, e.block, e.page(), e.other)
	case EvPageMigration:
		tr.PageRemapped(e.page(), e.proc, e.other)
	default:
		tr.Miss(e.proc, at, e.lat, e.block, e.page(), e.other, e.invals, e.sharers, e.kind)
	}
}

// randomHeatEvents draws n events over a few pages, every block touched
// by processors of several shards.
func randomHeatEvents(rng *rand.Rand, n, procs, pages int) []heatEvent {
	kinds := []Kind{EvMissLocal, EvMissRemoteClean, EvMissRemoteDirty, EvUpgrade, EvInvalRecv, EvInvalRecv, EvPageMigration}
	out := make([]heatEvent, n)
	for i := range out {
		out[i] = heatEvent{
			kind:    kinds[rng.Intn(len(kinds))],
			proc:    rng.Intn(procs),
			other:   rng.Intn(procs),
			block:   uint64(rng.Intn(pages*pagearray.BlocksPerPage/8)) * 8,
			lat:     sim.Time(rng.Intn(900)) * sim.Nanosecond,
			invals:  rng.Intn(4),
			sharers: rng.Intn(procs),
		}
	}
	return out
}

// splitHeat replays events into per-shard heat maps the way tracers kept
// heat before the dense index: a miss in its processor's shard bucket, a
// received invalidation in its victim's, a page move in bucket 0.
func splitHeat(events []heatEvent, shardOf []int, shards int) (pages, blocks []map[uint64]*HeatStat) {
	pages, blocks = make([]map[uint64]*HeatStat, shards), make([]map[uint64]*HeatStat, shards)
	for i := range pages {
		pages[i], blocks[i] = map[uint64]*HeatStat{}, map[uint64]*HeatStat{}
	}
	get := func(m map[uint64]*HeatStat, k uint64) *HeatStat {
		if m[k] == nil {
			m[k] = &HeatStat{}
		}
		return m[k]
	}
	for _, e := range events {
		b := shardOf[e.proc]
		switch e.kind {
		case EvInvalRecv:
			get(pages[b], e.page()).InvalsRecv++
			get(blocks[b], e.block).InvalsRecv++
		case EvPageMigration:
			get(pages[0], e.page()).Migrations++
		default:
			get(pages[b], e.page()).observe(e.kind, e.lat, e.invals, e.sharers)
			get(blocks[b], e.block).observe(e.kind, e.lat, e.invals, e.sharers)
		}
	}
	return pages, blocks
}

func sortedEntries(m map[uint64]*HeatStat) []HeatEntry {
	var out []HeatEntry
	for k, h := range m {
		out = append(out, HeatEntry{Key: k, Stat: *h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func sameHeatReports(t *testing.T, what string, got, want *Tracer) {
	t.Helper()
	if !reflect.DeepEqual(got.TopPages(0), want.TopPages(0)) {
		t.Errorf("%s: TopPages(0) differs", what)
	}
	if !reflect.DeepEqual(got.TopBlocks(0), want.TopBlocks(0)) {
		t.Errorf("%s: TopBlocks(0) differs", what)
	}
	if !reflect.DeepEqual(got.PageReport(0), want.PageReport(0)) || !reflect.DeepEqual(got.BlockReport(0), want.BlockReport(0)) {
		t.Errorf("%s: report rows differ", what)
	}
}

// TestRestoreFoldsShardSplitHeat: a snapshot in the layout of tracers that
// kept heat per shard, with the same blocks' heat split across 8 shard
// buckets, restores to the reports of the tracer that recorded the events
// uninterrupted, snaps again in the one-index layout, and keeps recording
// like it.
func TestRestoreFoldsShardSplitHeat(t *testing.T) {
	const procs, shards, pages = 16, 8, 6
	shardOf := make([]int, procs)
	for p := range shardOf {
		shardOf[p] = p / 2
	}
	newTracer := func() *Tracer {
		tr := New(procs, Options{Enabled: true})
		tr.SetShards(shardOf, shards)
		tr.GrowPages(pages)
		return tr
	}
	rng := rand.New(rand.NewSource(1))
	before, after := randomHeatEvents(rng, 4000, procs, pages), randomHeatEvents(rng, 1000, procs, pages)

	live := newTracer()
	for i, e := range before {
		e.apply(live, sim.Time(i))
	}
	s := live.Snap()
	pageSplit, blockSplit := splitHeat(before, shardOf, shards)
	buckets := map[uint64]int{} // block -> shard buckets holding its heat
	for b := range s.Buckets {
		s.Buckets[b].Pages, s.Buckets[b].Blocks = sortedEntries(pageSplit[b]), sortedEntries(blockSplit[b])
		for k := range blockSplit[b] {
			buckets[k]++
		}
	}
	spread := 0
	for _, n := range buckets {
		if n == shards {
			spread++
		}
	}
	if spread == 0 {
		t.Fatal("no block's heat is split across every shard bucket")
	}

	restored := newTracer()
	if err := restored.Restore(s); err != nil {
		t.Fatal(err)
	}
	sameHeatReports(t, "restored", restored, live)
	if !reflect.DeepEqual(restored.Snap(), live.Snap()) {
		t.Error("the restored tracer snaps differently from the uninterrupted one")
	}
	for i, e := range after {
		e.apply(live, sim.Time(len(before)+i))
		e.apply(restored, sim.Time(len(before)+i))
	}
	sameHeatReports(t, "after more events", restored, live)
}

// TestRestoreRejectsImpossibleHeat: Restore refuses, naming the field or
// the page, heat that live recording cannot leave.
func TestRestoreRejectsImpossibleHeat(t *testing.T) {
	miss := HeatStat{LocalMisses: 1, Samples: 1}
	half := HeatStat{LocalMisses: 1 << 31, Samples: 1 << 31}
	for _, c := range []struct {
		name   string
		pages  [2][]HeatEntry
		blocks [2][]HeatEntry
		want   string
	}{
		{name: "interventions", blocks: [2][]HeatEntry{{{Key: 5, Stat: HeatStat{RemoteDirty: 2, Interventions: 1, Samples: 2}}}}, want: "Interventions"},
		{name: "samples", blocks: [2][]HeatEntry{{{Key: 5, Stat: HeatStat{LocalMisses: 3, Samples: 2}}}}, want: "Samples"},
		{name: "migrations", blocks: [2][]HeatEntry{{{Key: 5, Stat: HeatStat{LocalMisses: 1, Samples: 1, Migrations: 1}}}}, want: "Migrations"},
		{name: "wide count", blocks: [2][]HeatEntry{{{Key: 5, Stat: HeatStat{LocalMisses: 1 << 32, Samples: 1 << 32}}}}, want: "LocalMisses"},
		{name: "negative count", blocks: [2][]HeatEntry{{{Key: 5, Stat: HeatStat{LocalMisses: 1, Samples: 1, InvalsSent: -1}}}}, want: "InvalsSent"},
		{name: "wide when folded", blocks: [2][]HeatEntry{{{Key: 5, Stat: half}}, {{Key: 5, Stat: half}}}, want: "LocalMisses"},
		{name: "no event", blocks: [2][]HeatEntry{{{Key: 5, Stat: HeatStat{Stall: 3}}}}, want: "records no"},
		{name: "block beyond pages", blocks: [2][]HeatEntry{{{Key: 4 << pagearray.PageBlockShift, Stat: miss}}}, want: "page 0x4"},
		{name: "page beyond pages", pages: [2][]HeatEntry{{{Key: 4, Stat: miss}}}, want: "page 0x4"},
		{name: "page with no event", pages: [2][]HeatEntry{{{Key: 1, Stat: HeatStat{SharerSum: 2}}}}, want: "records no"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := New(2, Options{Enabled: true})
			tr.SetShards([]int{0, 1}, 2)
			tr.GrowPages(4)
			s := tr.Snap()
			for b := range s.Buckets {
				s.Buckets[b].Pages, s.Buckets[b].Blocks = c.pages[b], c.blocks[b]
			}
			if err := tr.Restore(s); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Restore err = %v, want one naming %s", err, c.want)
			}
		})
	}
}

// TestMissAllocatesNothing: once a page is touched, recording a miss and
// the invalidation it sends allocates nothing.
func TestMissAllocatesNothing(t *testing.T) {
	tr := New(4, Options{Enabled: true})
	tr.GrowPages(2)
	tr.Miss(0, 0, sim.Nanosecond, 130, 1, 0, 1, 2, EvMissRemoteDirty)
	if n := testing.AllocsPerRun(100, func() {
		tr.Miss(1, 1, sim.Nanosecond, 131, 1, 0, 1, 2, EvMissRemoteDirty)
		tr.InvalRecv(2, 1, 131, 1, 1)
	}); n != 0 {
		t.Errorf("Miss+InvalRecv allocates %.1f times", n)
	}
}

// BenchmarkTracerMiss records a remote-dirty miss and the invalidation it
// sends, spread over 64 touched pages of a sized heat index: the per-miss
// cost of the tracer's attribution.
func BenchmarkTracerMiss(b *testing.B) {
	const procs, pages = 32, 64
	const blocks = pages * pagearray.BlocksPerPage
	tr := New(procs, Options{Enabled: true})
	tr.GrowPages(pages)
	for pg := uint64(0); pg < pages; pg++ {
		tr.Miss(0, 0, sim.Nanosecond, pg<<pagearray.PageBlockShift, pg, 0, 0, 1, EvMissLocal)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block := uint64(i*37) % blocks
		page := block >> pagearray.PageBlockShift
		tr.Miss(i%procs, sim.Time(i), 500*sim.Nanosecond, block, page, 3, 1, 2, EvMissRemoteDirty)
		tr.InvalRecv((i+1)%procs, sim.Time(i), block, page, i%procs)
	}
}
