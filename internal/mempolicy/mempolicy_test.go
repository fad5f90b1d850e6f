package mempolicy

import (
	"testing"
	"testing/quick"
)

func TestFirstTouchHomesAtToucher(t *testing.T) {
	tab := NewTable(8, FirstTouch, nil)
	if got := tab.Home(100, 5); got != 5 {
		t.Fatalf("first touch home = %d, want 5", got)
	}
	// Subsequent touches by other nodes do not move the page.
	if got := tab.Home(100, 2); got != 5 {
		t.Fatalf("home moved to %d on second touch", got)
	}
}

func TestRoundRobinStripes(t *testing.T) {
	tab := NewTable(4, RoundRobin, nil)
	for p := uint64(0); p < 16; p++ {
		if got := tab.Home(p, 0); got != int(p%4) {
			t.Fatalf("page %d home = %d, want %d", p, got, p%4)
		}
	}
}

func TestSetHomeOverridesPolicy(t *testing.T) {
	tab := NewTable(4, RoundRobin, nil)
	tab.SetHome(7, 2)
	tab.SetHome(5, 0)
	if got := tab.Home(7, 0); got != 2 {
		t.Fatalf("home = %d, want manual 2", got)
	}
	// Page 3 lies inside the table's slice but was never placed; page 8
	// lies beyond it; node 0 is a home, not "unplaced".
	if !tab.Placed(7) || tab.Placed(8) || tab.Placed(3) || !tab.Placed(5) {
		t.Fatal("Placed bookkeeping wrong")
	}
	if h, ok := tab.Lookup(5); !ok || h != 0 {
		t.Fatalf("Lookup(5) = %d, %v; want 0, true", h, ok)
	}
}

func TestMigrationTriggersAtThreshold(t *testing.T) {
	m := NewMigrator(4, 3)
	tab := NewTable(4, RoundRobin, m)
	page := uint64(1) // home = node 1
	if got := tab.Home(page, 0); got != 1 {
		t.Fatalf("initial home = %d", got)
	}
	// Two remote misses from node 3: below threshold.
	for i := 0; i < 2; i++ {
		if _, migrated := tab.RecordRemoteMiss(page, 3); migrated {
			t.Fatal("migrated below threshold")
		}
	}
	// Third miss crosses the threshold and node 3 leads: migrate.
	to, migrated := tab.RecordRemoteMiss(page, 3)
	if !migrated || to != 3 {
		t.Fatalf("migrated=%v to=%d, want migration to 3", migrated, to)
	}
	if got := tab.Home(page, 0); got != 3 {
		t.Fatalf("home after migration = %d, want 3", got)
	}
	if m.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", m.Migrations)
	}
}

func TestMigrationRequiresClearLeader(t *testing.T) {
	m := NewMigrator(4, 3)
	tab := NewTable(4, RoundRobin, m)
	page := uint64(2)
	tab.Home(page, 0)
	// Nodes 0 and 3 alternate misses; neither strictly leads at the
	// threshold, so the page must not ping-pong.
	migrations := 0
	for i := 0; i < 12; i++ {
		node := []int{0, 3}[i%2]
		if _, migrated := tab.RecordRemoteMiss(page, node); migrated {
			migrations++
		}
	}
	if migrations != 0 {
		t.Fatalf("page ping-ponged %d times under balanced misses", migrations)
	}
}

func TestNoMigrationWhenDisabled(t *testing.T) {
	tab := NewTable(4, RoundRobin, nil)
	tab.Home(1, 0)
	for i := 0; i < 1000; i++ {
		if _, migrated := tab.RecordRemoteMiss(1, 2); migrated {
			t.Fatal("migration happened with nil migrator")
		}
	}
}

func TestHomeStableProperty(t *testing.T) {
	// Property: without migration, a page's home never changes after
	// first assignment, whatever the touch sequence.
	f := func(pages []uint8, touchers []uint8) bool {
		tab := NewTable(8, FirstTouch, nil)
		first := map[uint64]int{}
		for i, pg := range pages {
			if len(touchers) == 0 {
				return true
			}
			n := int(touchers[i%len(touchers)]) % 8
			h := tab.Home(uint64(pg), n)
			if prev, ok := first[uint64(pg)]; ok && prev != h {
				return false
			}
			first[uint64(pg)] = h
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageOf(t *testing.T) {
	if PageOf(0) != 0 || PageOf(PageBytes-1) != 0 || PageOf(PageBytes) != 1 {
		t.Fatal("PageOf geometry wrong")
	}
}
