package mempolicy

import (
	"fmt"
	"testing"
)

// The snapshot's gen field is 1 plus the number of times a placed page
// moved; snapshots written before the page table was page-indexed carry
// the same count, so resume proofs still compare equal. It must count
// exactly the moves of an already-homed page and nothing else.
func TestGenBumpSemantics(t *testing.T) {
	cases := []struct {
		name     string
		run      func(tb *Table)
		wantBump uint32
	}{
		{"fresh table", func(tb *Table) {}, 0},
		{"first placement of a page", func(tb *Table) {
			tb.SetHome(10, 1)
		}, 0},
		{"first-touch resolution", func(tb *Table) {
			tb.Home(11, 2)
		}, 0},
		{"re-home to the same node", func(tb *Table) {
			tb.SetHome(10, 1)
			tb.SetHome(10, 1)
		}, 0},
		{"re-home to a different node", func(tb *Table) {
			tb.SetHome(10, 1)
			tb.SetHome(10, 2)
		}, 1},
		{"two independent moves", func(tb *Table) {
			tb.SetHome(10, 1)
			tb.SetHome(11, 1)
			tb.SetHome(10, 2)
			tb.SetHome(11, 3)
		}, 2},
		{"remote miss below threshold", func(tb *Table) {
			tb.Home(10, 0)
			tb.RecordRemoteMiss(10, 1)
		}, 0},
		{"migration", func(tb *Table) {
			tb.Home(10, 0)
			tb.RecordRemoteMiss(10, 1)
			tb.RecordRemoteMiss(10, 1)
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := NewTable(4, FirstTouch, NewMigrator(4, 2))
			if gen := tb.Snap().Gen; gen != 1 {
				t.Fatalf("fresh table's gen = %d, want 1", gen)
			}
			tc.run(tb)
			if got := tb.Snap().Gen - 1; got != tc.wantBump {
				t.Fatalf("gen bumped %d times, want %d", got, tc.wantBump)
			}
		})
	}
}

// TestRemapsMoveHomes: a manual re-home and a migration each move exactly
// their page and report the move through OnRemap; a re-home to the page's
// own node is not a move.
func TestRemapsMoveHomes(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(tb *Table)
		home   int    // page 10's home afterwards
		remaps string // what OnRemap saw
	}{
		{"manual re-home", func(tb *Table) { tb.SetHome(10, 2) }, 2, "[10:0->2]"},
		{"re-home to the same node", func(tb *Table) { tb.SetHome(10, 0) }, 0, "[]"},
		{"migration", func(tb *Table) { tb.RecordRemoteMiss(10, 3); tb.RecordRemoteMiss(10, 3) }, 3, "[10:0->3]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := NewTable(4, FirstTouch, NewMigrator(4, 2))
			tb.Home(10, 0)
			tb.Home(11, 1)
			var got []string
			tb.OnRemap = func(page uint64, from, to int) { got = append(got, fmt.Sprintf("%d:%d->%d", page, from, to)) }
			tc.mutate(tb)
			h10, _ := tb.Lookup(10)
			h11, _ := tb.Lookup(11)
			if h10 != tc.home || h11 != 1 || fmt.Sprint(got) != tc.remaps {
				t.Errorf("homes %d, %d and remaps %v; want %d, 1 and %s", h10, h11, got, tc.home, tc.remaps)
			}
		})
	}
}
