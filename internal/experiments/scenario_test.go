package experiments

import (
	"strings"
	"testing"

	"origin2000/internal/scenario"
	"origin2000/internal/sim"
)

// scenarioRun executes app at the given processor count on the named
// scenario's machine and returns the full measurement. Scale matches the
// contract suite (Div 64).
func scenarioRun(t *testing.T, appName, scenarioName, engine string, workers int, procs int, check bool) RunResult {
	t.Helper()
	return specRun(t, appName, mustNamed(t, scenarioName), engine, workers, procs, check)
}

// specRun is scenarioRun on a caller-built spec, for machines no preset
// names (e.g. a one-pointer limited directory that forces broadcasts).
func specRun(t *testing.T, appName string, spec scenario.Spec, engine string, workers int, procs int, check bool) RunResult {
	t.Helper()
	app := AppByName(appName)
	if app == nil {
		t.Fatalf("unknown app %q", appName)
	}
	s := Scale{Div: 64, CacheDiv: 64, Engine: engine, Workers: workers, Scenario: &spec}
	cfg := s.Machine(procs)
	cfg.Check = check
	r, err := s.RunConfig(app, cfg, s.Params(app, app.BasicSize(), ""))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustNamed(t *testing.T, name string) scenario.Spec {
	t.Helper()
	spec, ok := scenario.Named(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	return spec
}

// TestDirectoryFormatEquivalence is the cross-format contract: FFT and
// Ocean at 32 processors must compute identical results under the
// full-bit-vector, limited-pointer, and coarse-vector directory formats.
// Each app verifies its own numerical output inside Run (a wrong answer is
// an error), every run executes with the online coherence checker armed
// (extra invalidations must never corrupt protocol state), the demand
// access counts must match exactly (the directory format changes timing,
// never the program's data flow), and the invalidation counts are pinned
// to the formats' semantics: an imprecise format may only ever send MORE
// invalidations than the precise bit vector, never fewer.
func TestDirectoryFormatEquivalence(t *testing.T) {
	for _, appName := range []string{"FFT", "Ocean"} {
		appName := appName
		t.Run(appName, func(t *testing.T) {
			t.Parallel()
			full := scenarioRun(t, appName, "origin", "serial", 0, 32, true)
			invals := map[string]int64{"origin": full.Result.Counters.Invalidations}
			for _, scn := range []string{"limited", "coarse"} {
				r := scenarioRun(t, appName, scn, "serial", 0, 32, true)
				invals[scn] = r.Result.Counters.Invalidations
				if got, want := r.Result.Counters.Reads, full.Result.Counters.Reads; got != want {
					t.Errorf("%s: reads %d, fullvec %d — directory format changed the program's data flow", scn, got, want)
				}
				if got, want := r.Result.Counters.Writes, full.Result.Counters.Writes; got != want {
					t.Errorf("%s: writes %d, fullvec %d — directory format changed the program's data flow", scn, got, want)
				}
				if invals[scn] < invals["origin"] {
					t.Errorf("%s: %d invalidations < fullvec's %d — an imprecise format can only over-invalidate",
						scn, invals[scn], invals["origin"])
				}
			}
			t.Logf("%s invalidations: fullvec=%d limited=%d coarse=%d",
				appName, invals["origin"], invals["limited"], invals["coarse"])
		})
	}
}

// TestScenariosChangeTheMachine is the sanity complement of the identity
// gate: a non-default topology or directory format must actually change
// the simulated timing — a "scenario" that produces byte-identical results
// to the default machine is plumbing that got lost on the way down.
// Topologies are probed with FFT (every remote miss crosses the fabric);
// forced metarouters at 64 processors, since a 32-processor fabric is one
// 8-router module with or without them. Directory formats are probed with
// Ocean, the study's write-sharing app — and since Ocean's sharer counts
// stay within the default 4-pointer budget at this scale, the
// limited-pointer probe drops to one pointer to force the broadcast path.
func TestScenariosChangeTheMachine(t *testing.T) {
	for _, tc := range []struct {
		scn   string
		procs int
	}{{"mesh", 32}, {"fattree", 32}, {"origin-meta", 64}} {
		base := scenarioRun(t, "FFT", "origin", "serial", 0, tc.procs, false)
		r := scenarioRun(t, "FFT", tc.scn, "serial", 0, tc.procs, false)
		if r.Elapsed == base.Elapsed {
			t.Errorf("scenario %s: elapsed time identical to the default machine (%v) — the spec did not reach the simulator", tc.scn, base.Elapsed)
		}
	}
	obase := scenarioRun(t, "Ocean", "origin", "serial", 0, 32, false)
	lim1 := scenario.Spec{Name: "limited-1",
		Directory: scenario.DirectorySpec{Format: "limited", Pointers: 1}}.Normalized()
	for _, tc := range []struct {
		name string
		run  func() RunResult
	}{
		{"coarse", func() RunResult { return scenarioRun(t, "Ocean", "coarse", "serial", 0, 32, false) }},
		{"limited-1", func() RunResult { return specRun(t, "Ocean", lim1, "serial", 0, 32, false) }},
	} {
		r := tc.run()
		if r.Elapsed == obase.Elapsed {
			t.Errorf("scenario %s: elapsed time identical to the default machine (%v) — the spec did not reach the simulator", tc.name, obase.Elapsed)
		}
		if r.Result.Counters.Invalidations <= obase.Result.Counters.Invalidations {
			t.Errorf("scenario %s: %d invalidations, default %d — expected extra fan-out",
				tc.name, r.Result.Counters.Invalidations, obase.Result.Counters.Invalidations)
		}
	}
}

// TestResumeRefusesScenarioMismatch pins the cross-machine resume guard: a
// checkpoint captured on one scenario must refuse to resume on another,
// naming both machines, and must still resume on its own.
func TestResumeRefusesScenarioMismatch(t *testing.T) {
	app := AppByName("FFT")
	mesh := mustNamed(t, "mesh")
	s := Scale{Div: 64, CacheDiv: 64, Scenario: &mesh}
	params := s.Params(app, app.BasicSize(), "")
	_, snaps, err := s.RunCheckpointed(app, 32, params, 200*sim.Microsecond, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("run captured no snapshots; shorten the capture interval")
	}
	sn := snaps[0]
	if sn.Header.Spec.ScenarioHash != mesh.Hash() {
		t.Fatalf("snapshot records scenario hash %q, want %q", sn.Header.Spec.ScenarioHash, mesh.Hash())
	}

	limited := mustNamed(t, "limited")
	wrong := Scale{Div: 64, CacheDiv: 64, Scenario: &limited}
	_, err = wrong.ResumeRun(app, 32, params, sn)
	if err == nil {
		t.Fatal("cross-scenario resume did not fail")
	}
	for _, want := range []string{"mesh", "limited", mesh.Hash(), limited.Hash(), "-scenario"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal does not mention %q: %v", want, err)
		}
	}

	// The default machine must also refuse a mesh checkpoint: an absent
	// scenario is not a wildcard.
	none := Scale{Div: 64, CacheDiv: 64}
	if _, err := none.ResumeRun(app, 32, params, sn); err == nil {
		t.Fatal("default-scenario resume of a mesh checkpoint did not fail")
	}

	// And the matching scenario resumes cleanly, proving state equality.
	if _, err := s.ResumeRun(app, 32, params, sn); err != nil {
		t.Fatalf("matching-scenario resume failed: %v", err)
	}
}
