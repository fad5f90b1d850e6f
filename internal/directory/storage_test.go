package directory

import (
	"reflect"
	"strings"
	"testing"

	"origin2000/internal/mempolicy"
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

// TestRehomeKeepsEntriesAndMovesCounts: when the page table rehomes a
// page, its entries stay where they are and its blocks' share of the state
// counts moves to the new home, so the per-node snaps list the page under
// its new home and Check, which recounts each node, still passes.
func TestRehomeKeepsEntriesAndMovesCounts(t *testing.T) {
	homes := mempolicy.NewTable(2, mempolicy.FirstTouch, nil)
	d := NewWithFormat(nil, 8, homes)
	homes.OnRemap = d.Rehome
	d.GrowPages(4)
	homes.SetHome(0, 1)
	homes.SetHome(2, 0)
	homes.SetHome(3, 0)
	d.Read(0, 4)                  // node 1's page 0: Shared
	d.Read(2*blocksPerPage+1, 0)  // page 2: Shared
	d.Write(2*blocksPerPage+5, 1) // page 2: Exclusive
	d.Write(3*blocksPerPage, 1)   // page 3 stays on node 0
	before := d.pages.Peek(2)

	homes.SetHome(2, 1)
	if d.pages.Peek(2) != before {
		t.Error("rehoming replaced page 2's record")
	}
	if e := d.Entry(2*blocksPerPage + 5); e.State != Exclusive || e.Owner != 1 {
		t.Errorf("rehomed entry = %+v, want Exclusive at 1", e)
	}
	snaps := d.Snaps()
	blocks := func(s Snap) (b []uint64) {
		for _, bs := range s.Blocks {
			b = append(b, bs.Block)
		}
		return b
	}
	if got, want := blocks(snaps[0]), []uint64{3 * blocksPerPage}; !reflect.DeepEqual(got, want) {
		t.Errorf("node 0 snaps blocks %v, want %v", got, want)
	}
	if got, want := blocks(snaps[1]), []uint64{0, 2*blocksPerPage + 1, 2*blocksPerPage + 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("node 1 snaps blocks %v, want %v", got, want)
	}
	if s := snaps[0]; s.Shared != 0 || s.Exclusive != 1 {
		t.Errorf("node 0 counts = %d Shared, %d Exclusive; want 0, 1", s.Shared, s.Exclusive)
	}
	if s := snaps[1]; s.Shared != 2 || s.Exclusive != 1 {
		t.Errorf("node 1 counts = %d Shared, %d Exclusive; want 2, 1", s.Shared, s.Exclusive)
	}
	if s, x := d.StateCounts(); s != 2 || x != 2 {
		t.Errorf("machine counts = %d Shared, %d Exclusive; want 2, 2", s, x)
	}
	if err := d.Check(); err != nil {
		t.Error(err)
	}
	// A rehome the directory does not count breaks the recount, naming
	// the node whose counts are off.
	d.Rehome(3, 0, 1)
	if err := d.Check(); err == nil || !strings.Contains(err.Error(), "node 0") {
		t.Errorf("Check after a stray Rehome = %v, want an error naming node 0", err)
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
			d.nodes[0].nShared++
		}},
		{"exclusive count out of step", func(d *Directory) {
			d.Write(blocksPerPage, 2)
			d.nodes[0].nExclusive--
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
