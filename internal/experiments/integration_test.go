package experiments

import (
	"fmt"
	"testing"

	"origin2000/internal/core"
	"origin2000/internal/mempolicy"
	"origin2000/internal/synchro"
	"origin2000/internal/topology"
	"origin2000/internal/workload"
)

// TestEveryAppEveryVariantRunsAndVerifies is the integration matrix: all
// eleven applications, every algorithm variant, several processor counts,
// each run to completion with its built-in output verification.
func TestEveryAppEveryVariantRunsAndVerifies(t *testing.T) {
	t.Parallel()
	s := TestScale
	for _, app := range Apps() {
		for _, variant := range app.Variants() {
			for _, procs := range []int{1, 4, 8} {
				if procs > app.MaxProcs() {
					continue
				}
				name := fmt.Sprintf("%s/%q/p%d", app.Name(), variant, procs)
				t.Run(name, func(t *testing.T) {
					_, err := s.Run(app, procs, s.Params(app, app.BasicSize(), variant))
					if err != nil {
						// Wrong output usually means the memory system lied
						// somewhere; ship the sharing diagnosis with the failure.
						saveSharingReport(t, s, app, procs, variant)
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestEveryAppUnderSyncVariants runs each app with the fetch&op lock and
// centralized barrier, exercising the Section 6.3 combinations everywhere.
func TestEveryAppUnderSyncVariants(t *testing.T) {
	t.Parallel()
	s := TestScale
	for _, app := range Apps() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			params := s.Params(app, app.BasicSize(), "")
			params.Lock = synchro.LockTicketFetchOp
			params.Barrier = synchro.BarrierFetchOp
			if _, err := s.Run(app, 4, params); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEveryAppUnderRandomMapping runs each app with a random topology
// mapping (Section 7.1) — results must still verify.
func TestEveryAppUnderRandomMapping(t *testing.T) {
	t.Parallel()
	s := TestScale
	for _, app := range Apps() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			cfg := s.Machine(8)
			cfg.Mapping = topology.Random(8, 3)
			if _, err := s.RunConfig(app, cfg, s.Params(app, app.BasicSize(), "")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEveryAppUnderRoundRobinPlacement runs each app with placement
// ignored and round-robin pages (the Table 3 "RoundRobin" configuration).
func TestEveryAppUnderRoundRobinPlacement(t *testing.T) {
	t.Parallel()
	s := TestScale
	for _, app := range Apps() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			cfg := s.Machine(8)
			cfg.IgnorePlacement = true
			cfg.Placement = mempolicy.RoundRobin
			if _, err := s.RunConfig(app, cfg, s.Params(app, app.BasicSize(), "")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEveryAppOneProcPerNode runs each app in the Section 7.2
// configuration (one processor per node).
func TestEveryAppOneProcPerNode(t *testing.T) {
	t.Parallel()
	s := TestScale
	for _, app := range Apps() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			cfg := s.Machine(8)
			cfg.ProcsPerNode = 1
			if _, err := s.RunConfig(app, cfg, s.Params(app, app.BasicSize(), "")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDirectoryConsistentAfterEveryApp runs each app and then checks the
// coherence directory's global invariants.
func TestDirectoryConsistentAfterEveryApp(t *testing.T) {
	t.Parallel()
	s := TestScale
	for _, app := range Apps() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			m := core.New(s.Machine(8))
			if err := app.Run(m, s.Params(app, app.BasicSize(), "")); err != nil {
				t.Fatal(err)
			}
			if err := m.DirectoryCheck(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestAppsDeclareSaneMetadata checks the registry-facing metadata.
func TestAppsDeclareSaneMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, app := range Apps() {
		if seen[app.Name()] {
			t.Errorf("duplicate app %q", app.Name())
		}
		seen[app.Name()] = true
		if app.BasicSize() <= 0 || app.Unit() == "" {
			t.Errorf("%s: bad metadata", app.Name())
		}
		if len(app.Variants()) == 0 || app.Variants()[0] != "" {
			t.Errorf("%s: variants must start with the original", app.Name())
		}
		found := false
		for _, v := range app.SweepSizes() {
			if v == app.BasicSize() {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: basic size missing from sweep sizes", app.Name())
		}
		if app.MaxProcs() != 64 && app.MaxProcs() != 128 {
			t.Errorf("%s: unexpected MaxProcs %d", app.Name(), app.MaxProcs())
		}
	}
	if len(seen) != 11 {
		t.Errorf("expected the paper's 11 applications, have %d", len(seen))
	}
}

var _ = workload.Params{}
