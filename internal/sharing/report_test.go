package sharing

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"origin2000/internal/memclass"
	"origin2000/internal/pagearray"
)

// referenceTables is the materialize-and-sort construction of the report's
// block tables: a BlockReport for every touched block, fully sorted, then
// cut at top. Report keeps only the rows it prints and must match this
// row for row.
func referenceTables(o *Observer, top int) (tops, suspects []BlockReport) {
	o.flush()
	var all []BlockReport
	o.forEachBlock(func(blk uint64, b *blockState) {
		all = append(all, o.blockReport(blk, b))
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].Misses != all[j].Misses {
			return all[i].Misses > all[j].Misses
		}
		return all[i].Block < all[j].Block
	})
	n := len(all)
	if top > 0 && n > top {
		n = top
	}
	tops = append([]BlockReport(nil), all[:n]...)
	for _, b := range all {
		if b.Coherence >= 4 && b.FalseSharing*2 >= b.Coherence {
			b.Advice = adviceFor(b)
			suspects = append(suspects, b)
		}
	}
	sort.Slice(suspects, func(i, j int) bool {
		if suspects[i].FalseSharing != suspects[j].FalseSharing {
			return suspects[i].FalseSharing > suspects[j].FalseSharing
		}
		return suspects[i].Block < suspects[j].Block
	})
	if top > 0 && len(suspects) > top {
		suspects = suspects[:top]
	}
	return tops, suspects
}

// feedSeeded records a seeded event stream over the given blocks: each
// block takes a cold read miss and a hit, and one block in four then
// ping-pongs between two processors writing random words, so coherence
// misses split between true and false sharing. Counts stay small, so
// many blocks tie in misses and in false sharing.
func feedSeeded(o *Observer, blocks []uint64, r *rand.Rand) {
	for _, blk := range blocks {
		page := blk >> 7
		home := int(page) % o.nnodes
		p, q := r.Intn(o.nprocs), r.Intn(o.nprocs)
		w := r.Intn(WordsPerBlock)
		o.OnMiss(p, blk, w, false, memclass.RemoteClean, home, page, 0)
		o.OnHit(p, blk, w, r.Intn(2) == 0)
		if p == q || r.Intn(4) != 0 {
			continue
		}
		for round := r.Intn(6); round >= 0; round-- {
			o.OnInvalidate(p, blk)
			o.OnMiss(q, blk, r.Intn(WordsPerBlock), true, memclass.RemoteDirty, home, page, 1)
			o.OnInvalidate(q, blk)
			o.OnMiss(p, blk, r.Intn(WordsPerBlock), true, memclass.RemoteDirty, home, page, 1)
			if r.Intn(2) == 0 {
				o.OnHit(p, blk, r.Intn(WordsPerBlock), false)
			}
		}
	}
}

// TestReportMatchesReference checks Report's bounded top-block and
// suspect tables against the full sort on seeded block sets spread over
// 128 pages, at top 0 (every row), 1, 10 and past the block count, and
// that the sets really tie in both sort keys.
func TestReportMatchesReference(t *testing.T) {
	var missTies, falseTies int
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		seen := map[uint64]bool{}
		var blocks []uint64
		for len(blocks) < 600 {
			if blk := uint64(r.Intn(128 * pagearray.BlocksPerPage)); !seen[blk] {
				seen[blk] = true
				blocks = append(blocks, blk)
			}
		}
		o := New(8, 4)
		feedSeeded(o, blocks, r)
		for _, top := range []int{0, 1, 10, len(blocks) + 5} {
			wantTops, wantSuspects := referenceTables(o, top)
			got := o.Report(top)
			if !reflect.DeepEqual(got.TopBlocks, wantTops) {
				t.Errorf("seed %d top %d: top blocks differ from the full sort", seed, top)
			}
			if !reflect.DeepEqual(got.Suspects, wantSuspects) {
				t.Errorf("seed %d top %d: suspects differ from the full sort", seed, top)
			}
			if top == 0 {
				for i := 1; i < len(wantTops); i++ {
					if wantTops[i].Misses == wantTops[i-1].Misses {
						missTies++
					}
				}
				for i := 1; i < len(wantSuspects); i++ {
					if wantSuspects[i].FalseSharing == wantSuspects[i-1].FalseSharing {
						falseTies++
					}
				}
			}
		}
	}
	if missTies == 0 || falseTies == 0 {
		t.Errorf("block sets never tie: %d tied miss ranks, %d tied false-sharing ranks", missTies, falseTies)
	}
}

// allocs runs f twice and reports the heap allocations the second run
// made: their count and their bytes. Like testing.AllocsPerRun it pins
// GOMAXPROCS to 1, so no other goroutine allocates meanwhile.
func allocs(f func()) (count, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// seededObserver is a 32-processor, 16-node observer that has recorded a
// seeded log touching n blocks.
func seededObserver(n int) *Observer {
	o := New(32, 16)
	blocks := make([]uint64, n)
	for i := range blocks {
		blocks[i] = uint64(i)
	}
	feedSeeded(o, blocks, rand.New(rand.NewSource(1)))
	return o
}

// TestReportAllocsBounded guards the report's memory: over a folded log
// touching 100K blocks, Report(10) allocates under 1 MB, because it keeps
// only the rows it prints.
func TestReportAllocsBounded(t *testing.T) {
	o := seededObserver(100_000)
	o.flush()
	if _, n := allocs(func() { o.Report(10) }); n >= 1<<20 {
		t.Errorf("Report(10) over 100K blocks allocates %d bytes, want under 1 MB", n)
	}
}

// TestNewAllocsBounded guards the observer's fixed cost: the capture log
// is sized to fold in the host's cache, so a 32-processor observer
// allocates under 1 MB.
func TestNewAllocsBounded(t *testing.T) {
	if _, n := allocs(func() { New(32, 16) }); n >= 1<<20 {
		t.Errorf("New(32, 16) allocates %d bytes, want under 1 MB", n)
	}
}

// TestTableMemoryFollowsTouchedPages guards the table's footprint: one
// miss on block 0 of each of 64 pages spaced 32 pages apart, folded by
// Report(0), allocates under 2 MB, because only touched pages own a
// record.
func TestTableMemoryFollowsTouchedPages(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := New(32, 16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 64; i++ {
		page := uint64(32 * i)
		o.OnMiss(i%32, pagearray.BlockOf(page, 0), 0, false, memclass.RemoteClean, i%16, page, 0)
	}
	o.Report(0)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 2<<20 {
		t.Errorf("one miss on each of 64 pages allocates %d bytes, want under 2 MB", n)
	}
}

// BenchmarkSharingFold records and folds hits with one miss in eight from
// 32 processors, each cycling over eight blocks on eight pages: more
// blocks than the memo has ways, so each event resolves its block through
// the page table. ns/op is per event, capture and fold included.
func BenchmarkSharingFold(b *testing.B) {
	o := New(32, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		proc, page := i%32, uint64(i%256)
		blk, word := pagearray.BlockOf(page, proc), i%WordsPerBlock
		if i%8 == 0 {
			o.OnMiss(proc, blk, word, false, memclass.RemoteClean, int(page%16), page, 0)
		} else {
			o.OnHit(proc, blk, word, i%3 == 0)
		}
	}
	o.flush()
}

// BenchmarkSharingReport records a seeded log touching 100K blocks on a
// 32-processor observer, folds it and reports the top ten rows.
func BenchmarkSharingReport(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seededObserver(100_000).Report(10)
	}
}
