package core

import (
	"reflect"
	"testing"

	"origin2000/internal/mempolicy"
)

// TestMigrationOnParallelEngineKeepsDirectorySized migrates pages on the
// parallel engine at 8 workers. Alloc sized the directory before Run, so no
// transition grows its page array while shards run; the rehomed pages'
// counts agree with a recount, and the per-node snaps equal the serial
// engine's.
func TestMigrationOnParallelEngineKeepsDirectorySized(t *testing.T) {
	run := func(engine string) *Machine {
		cfg := Origin2000(16)
		cfg.Placement = mempolicy.RoundRobin
		cfg.IgnorePlacement = true
		cfg.MigrationThreshold = 8
		cfg.Cache.SizeBytes = 1024 // force repeated misses on the same page
		cfg.Engine, cfg.Workers = engine, 8
		m := New(cfg)
		arr := m.Alloc("a", 1<<14, 8) // 8 pages, homed round-robin on the 8 nodes
		pages := m.dir.Pages()
		perPage := arr.Len() / arr.Pages()
		err := m.Run(func(p *Proc) {
			// Each node's pair works on the next node's page, so their
			// remote misses migrate that page to them.
			base := (p.node + 1) % arr.Pages() * perPage
			for rep := 0; rep < 4; rep++ {
				for i := 0; i < 64; i++ {
					a := arr.Addr(base + (p.ID()%2*64+i)*16)
					if i%4 == 0 {
						p.Write(a)
					} else {
						p.Read(a)
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.dir.Pages(); got != pages {
			t.Errorf("%s: the directory covered %d pages before Run and %d after", engine, pages, got)
		}
		if err := m.DirectoryCheck(); err != nil {
			t.Errorf("%s: %v", engine, err)
		}
		return m
	}
	par := run("parallel")
	if w := par.eng.Workers(); w != 8 {
		t.Fatalf("parallel engine runs %d workers, want 8", w)
	}
	if n := par.Result().Migrations; n == 0 {
		t.Fatal("no page migrated")
	}
	ser := run("serial")
	if !reflect.DeepEqual(par.dir.Snaps(), ser.dir.Snaps()) {
		t.Error("per-node directory snaps differ between the parallel and serial engines")
	}
}
