package directory

import (
	"reflect"
	"testing"

	"origin2000/internal/pagearray"
)

// The page-array storage and the reused scratch invalidation list are the
// directory's load-bearing mechanisms. These tests pin each one directly.

const blocksPerPage = pagearray.BlocksPerPage

// touchedPages lists the pages whose records the directory materialized.
func touchedPages(d *Directory) []uint64 {
	var pages []uint64
	d.pages.ForEach(func(page uint64, _ *dirPage) { pages = append(pages, page) })
	return pages
}

func TestEntryMaterializesPagesLazily(t *testing.T) {
	d := New()
	if d.pages.Len() != 0 {
		t.Fatal("fresh directory covers pages")
	}
	d.Read(5, 0)                 // page 0
	d.Read(blocksPerPage+3, 1)   // page 1
	d.Read(9*blocksPerPage+7, 2) // page 9
	if got := touchedPages(d); !reflect.DeepEqual(got, []uint64{0, 1, 9}) {
		t.Fatalf("touched pages = %v, want [0 1 9]", got)
	}
	// Entry on an untouched page, inside the array or beyond it, must not
	// materialize it.
	for _, b := range []uint64{4 * blocksPerPage, 40 * blocksPerPage} {
		if e := d.Entry(b); e.State != Unowned {
			t.Fatalf("untouched block %d state = %v", b, e.State)
		}
	}
	if got := touchedPages(d); !reflect.DeepEqual(got, []uint64{0, 1, 9}) {
		t.Fatalf("read-only Entry materialized a page: %v", got)
	}
	if d.pages.Len() != 10 {
		t.Fatalf("array covers %d pages, want 10", d.pages.Len())
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestMovePageHandsOffRecordAndCounts: migration moves a page's record and
// its blocks' share of the state counts to the new home's directory, and
// both directories still pass Check, which recounts them.
func TestMovePageHandsOffRecordAndCounts(t *testing.T) {
	src, dst := New(), New()
	src.Read(2*blocksPerPage+1, 0)  // page 2: Shared
	src.Write(2*blocksPerPage+5, 1) // page 2: Exclusive
	src.Write(3*blocksPerPage, 1)   // page 3 stays
	dst.Read(0, 4)                  // dst's own page 0
	src.MovePage(2, dst)
	src.MovePage(7, dst) // never touched: nothing to move
	src.MovePage(3, src) // to itself: no-op
	if got := touchedPages(src); !reflect.DeepEqual(got, []uint64{3}) {
		t.Errorf("source pages = %v, want [3]", got)
	}
	if got := touchedPages(dst); !reflect.DeepEqual(got, []uint64{0, 2}) {
		t.Errorf("destination pages = %v, want [0 2]", got)
	}
	if e := dst.Entry(2*blocksPerPage + 5); e.State != Exclusive || e.Owner != 1 {
		t.Errorf("moved entry = %+v, want Exclusive at 1", e)
	}
	if s, x := src.StateCounts(); s != 0 || x != 1 {
		t.Errorf("source counts = %d Shared, %d Exclusive; want 0, 1", s, x)
	}
	if s, x := dst.StateCounts(); s != 2 || x != 1 {
		t.Errorf("destination counts = %d Shared, %d Exclusive; want 2, 1", s, x)
	}
	for _, d := range []*Directory{src, dst} {
		if err := d.Check(); err != nil {
			t.Error(err)
		}
	}
}

func TestWriteScratchListIsReusedAcrossCalls(t *testing.T) {
	d := New()
	for p := 0; p < 6; p++ {
		d.Read(1, p)
	}
	r1 := d.Write(1, 0)
	if want := []int{1, 2, 3, 4, 5}; !reflect.DeepEqual(r1.Invalidate, want) {
		t.Fatalf("Invalidate = %v, want %v", r1.Invalidate, want)
	}
	save := append([]int(nil), r1.Invalidate...)

	// A second Write on another block reuses the same backing array: the
	// documented contract is that r1.Invalidate is dead after this point.
	for p := 0; p < 3; p++ {
		d.Read(2, p)
	}
	r2 := d.Write(2, 2)
	if want := []int{0, 1}; !reflect.DeepEqual(r2.Invalidate, want) {
		t.Fatalf("second Invalidate = %v, want %v", r2.Invalidate, want)
	}
	if len(r1.Invalidate) > 0 && len(r2.Invalidate) > 0 &&
		&r1.Invalidate[0] != &r2.Invalidate[0] {
		t.Error("scratch list not reused: second Write allocated a new buffer")
	}
	// The copy taken before the second Write is the survival pattern
	// internal/core relies on.
	if !reflect.DeepEqual(save, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("saved copy corrupted: %v", save)
	}
}

func TestWriteWithNoSharersReturnsNilInvalidate(t *testing.T) {
	d := New()
	if r := d.Write(7, 4); r.Invalidate != nil || r.Dirty {
		t.Fatalf("cold write returned work: %+v", r)
	}
	d.Read(8, 4)
	if r := d.Write(8, 4); r.Invalidate != nil || r.Dirty {
		t.Fatalf("sole-sharer upgrade returned work: %+v", r)
	}
}

func TestForEachVisitsActiveBlocksInOrder(t *testing.T) {
	d := New()
	blocks := []uint64{9 * blocksPerPage, 2, blocksPerPage + 1, 700*blocksPerPage + 127}
	for _, b := range blocks {
		d.Read(b, 1)
	}
	d.Writeback(2, 1) // not exclusive: no-op, stays active
	var got []uint64
	d.ForEach(func(b uint64, e Entry) {
		got = append(got, b)
		if e.State != SharedState || !e.Sharers.Contains(1) {
			t.Errorf("block %d entry wrong: %+v", b, e)
		}
	})
	want := []uint64{2, blocksPerPage + 1, 9 * blocksPerPage, 700*blocksPerPage + 127}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ForEach order = %v, want %v", got, want)
	}
	// Draining a block hides it from ForEach.
	d.Evict(2, 1)
	got = got[:0]
	d.ForEach(func(b uint64, e Entry) { got = append(got, b) })
	if !reflect.DeepEqual(got, want[1:]) {
		t.Fatalf("ForEach after evict = %v, want %v", got, want[1:])
	}
}

func TestCheckFlagsSemanticCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(d *Directory)
	}{
		{"shared with no sharers", func(d *Directory) {
			e := d.entry(3)
			e.State = SharedState
		}},
		{"exclusive with sharer bits", func(d *Directory) {
			e := d.entry(3)
			e.State = Exclusive
			e.Owner = 1
			e.Sharers.Add(2)
		}},
		{"owner out of range", func(d *Directory) {
			e := d.entry(3)
			e.State = Exclusive
			e.Owner = MaxProcs
		}},
		{"negative owner", func(d *Directory) {
			e := d.entry(3)
			e.State = Exclusive
			e.Owner = -1
		}},
		{"unowned with sharers", func(d *Directory) {
			e := d.entry(3)
			e.State = Unowned
			e.Sharers.Add(5)
		}},
		{"invalid state", func(d *Directory) {
			e := d.entry(3)
			e.State = State(7)
		}},
		{"shared count out of step", func(d *Directory) {
			d.nShared++
		}},
		{"exclusive count out of step", func(d *Directory) {
			d.Write(blocksPerPage, 2)
			d.nExclusive--
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := New()
			d.Read(1, 0)
			if err := d.Check(); err != nil {
				t.Fatalf("healthy directory flagged: %v", err)
			}
			tc.corrupt(d)
			if err := d.Check(); err == nil {
				t.Fatal("corruption not flagged")
			}
		})
	}
}

func TestFaultDropInvalidationClearsBitsButSkipsList(t *testing.T) {
	d := New()
	for p := 0; p < 4; p++ {
		d.Read(6, p)
	}
	d.FaultDropInvalidation(func(block uint64, proc int) bool { return proc == 2 })
	r := d.Write(6, 0)
	if want := []int{1, 3}; !reflect.DeepEqual(r.Invalidate, want) {
		t.Fatalf("Invalidate = %v, want %v (p2 dropped)", r.Invalidate, want)
	}
	// The bug is a *lost message*, not directory corruption: the entry
	// itself transitions cleanly and still passes Check.
	if e := d.Entry(6); e.State != Exclusive || e.Owner != 0 || e.Sharers.Count() != 0 {
		t.Fatalf("entry after faulted write: %+v", e)
	}
	if err := d.Check(); err != nil {
		t.Fatalf("faulted write corrupted the directory: %v", err)
	}
	d.FaultDropInvalidation(nil)
	for p := 0; p < 3; p++ {
		d.Read(9, p)
	}
	if r := d.Write(9, 0); !reflect.DeepEqual(r.Invalidate, []int{1, 2}) {
		t.Fatalf("cleared fault still active: %v", r.Invalidate)
	}
}
