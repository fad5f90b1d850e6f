package core_test

import (
	"fmt"
	"strings"
	"testing"

	"origin2000/internal/core"
	"origin2000/internal/mempolicy"
)

func TestPlaceBlockedDistributesContiguously(t *testing.T) {
	m := core.New(core.Origin2000(8)) // 4 nodes
	pages := 16
	arr := m.Alloc("a", pages*mempolicy.PageBytes/8, 8)
	arr.PlaceBlocked(8)
	// Page p belongs to logical proc p*8/16 = p/2; proc q is on node q/2.
	for pg := 0; pg < pages; pg++ {
		page := mempolicy.PageOf(arr.Addr(pg * mempolicy.PageBytes / 8))
		wantProc := pg * 8 / pages
		wantNode := wantProc / 2
		if got := m.PageTable().Choose(page, 0); got != wantNode {
			t.Errorf("page %d homed at node %d, want %d", pg, got, wantNode)
		}
	}
}

func TestPlaceOwnerNegativeSkips(t *testing.T) {
	m := core.New(core.Origin2000(4))
	arr := m.Alloc("a", 4*mempolicy.PageBytes/8, 8)
	arr.PlaceOwner(func(pg int) int {
		if pg%2 == 0 {
			return 1 // node of proc 1 = node 0
		}
		return -1 // leave to the default policy
	})
	evenPage := mempolicy.PageOf(arr.Addr(0))
	if !m.PageTable().Placed(evenPage) {
		t.Error("even pages should be placed")
	}
	oddPage := mempolicy.PageOf(arr.Addr(mempolicy.PageBytes / 8))
	if m.PageTable().Placed(oddPage) {
		t.Error("odd pages should stay unplaced")
	}
}

func TestAddrPanicsOutOfRange(t *testing.T) {
	m := core.New(core.Origin2000(2))
	arr := m.Alloc("a", 10, 8)
	defer func() {
		if recover() == nil {
			t.Error("Addr out of range should panic")
		}
	}()
	arr.Addr(10)
}

// TestAccessBeyondAllocationPanics: page state is indexed by page number,
// so touching a page Alloc never handed out panics naming the page instead
// of growing the page-indexed arrays to reach it.
func TestAccessBeyondAllocationPanics(t *testing.T) {
	m := core.New(core.Origin2000(2))
	arr := m.Alloc("a", 10, 8)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "page 0x40000 is beyond the 1 pages allocated") {
			t.Errorf("panic = %v, want one naming page 0x40000", r)
		}
	}()
	_ = m.RunOne(func(p *core.Proc) { p.Read(arr.Base() + 1<<32) })
}

func TestIgnorePlacementDisablesManual(t *testing.T) {
	cfg := core.Origin2000(8)
	cfg.IgnorePlacement = true
	cfg.Placement = mempolicy.RoundRobin
	m := core.New(cfg)
	arr := m.Alloc("a", 8*mempolicy.PageBytes/8, 8)
	arr.PlaceAtNode(3)
	page := mempolicy.PageOf(arr.Addr(0))
	if m.PageTable().Placed(page) {
		t.Error("manual placement should be ignored")
	}
}
