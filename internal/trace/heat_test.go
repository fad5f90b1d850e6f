package trace

import (
	"testing"

	"origin2000/internal/pagearray"
	"origin2000/internal/sim"
)

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
