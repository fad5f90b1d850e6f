package experiments

import (
	"strings"
	"testing"

	"origin2000/internal/core"
	"origin2000/internal/metrics"
	"origin2000/internal/sim"
	"origin2000/internal/workload"
)

// critPathFor runs app at 32 processors with the critical-path recorder on
// and returns the analyzed path.
func critPathFor(t *testing.T, app workload.App) *metrics.Artifact {
	t.Helper()
	s := Scale{Div: 64, CacheDiv: 64, CritPath: true}
	var m *core.Machine
	s.OnMachine = func(_ string, mm *core.Machine) { m = mm }
	params := s.Params(app, app.BasicSize(), "")
	if _, err := s.RunConfig(app, s.Machine(32), params); err != nil {
		t.Fatal(err)
	}
	a := BuildArtifact(app.Name(), app, params, m)
	return &a
}

// TestCritPathExactAllApps is the analyzer's acceptance test on real runs:
// for every application in the study at 32 processors, the critical-path
// decomposition must be exact — segments tile [0, Elapsed], every residual
// is zero, and the component totals sum to the elapsed virtual time. Any
// nonzero residual means a clock advance escaped the accounting taxonomy.
func TestCritPathExactAllApps(t *testing.T) {
	for _, app := range Apps() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			t.Parallel()
			a := critPathFor(t, app)
			p, err := metrics.CritPath(a)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Segments) == 0 {
				t.Fatal("empty critical path")
			}
			var at sim.Time
			for i, seg := range p.Segments {
				if seg.Start != at {
					t.Errorf("segment %d starts at %v, previous ended at %v", i, seg.Start, at)
				}
				at = seg.End
				if seg.Residual != 0 {
					t.Errorf("segment %d (epoch %d, proc %d) residual = %v, want 0",
						i, seg.Epoch, seg.Proc, seg.Residual)
				}
			}
			if at != p.Elapsed {
				t.Errorf("segments end at %v, elapsed %v", at, p.Elapsed)
			}
			if p.Residual != 0 {
				t.Errorf("path residual = %v, want 0", p.Residual)
			}
			if p.Total() != p.Elapsed {
				t.Errorf("Total() = %v != Elapsed %v", p.Total(), p.Elapsed)
			}
			if p.Total() != a.Elapsed {
				t.Errorf("path elapsed %v != artifact elapsed %v", p.Total(), a.Elapsed)
			}
		})
	}
}

// TestCritPathDominantScenarios pins that the analyzer's verdict tracks the
// workload's actual bottleneck rather than collapsing to one bucket: a
// lock-bound scenario (Infer, whose processors serialize on task locks)
// must come out sync-bound, while memory-system-bound scenarios (Volrend's
// capacity misses, Radix's permutation-phase hot-spotting) must come out
// memory- and queueing-bound — three different dominant components from
// the same decomposition.
func TestCritPathDominantScenarios(t *testing.T) {
	cases := []struct {
		app  string
		want string
	}{
		{"Infer", "sync"},
		{"Volrend", "memory"},
		{"Radix", "queueing"},
	}
	got := map[string]string{}
	for _, c := range cases {
		a := critPathFor(t, AppByName(c.app))
		p, err := metrics.CritPath(a)
		if err != nil {
			t.Fatal(err)
		}
		got[c.app] = p.Dominant()
		if !strings.Contains(p.Dominant(), c.want) {
			t.Errorf("%s: dominant = %q, want a %s-bound verdict", c.app, p.Dominant(), c.want)
		}
	}
	if got["Infer"] == got["Volrend"] || got["Volrend"] == got["Radix"] || got["Infer"] == got["Radix"] {
		t.Errorf("scenarios do not disagree: %v", got)
	}
}

// TestCritPathOffErrors pins the off-by-default contract: without
// Config.CritPath the artifact carries no record and the analyzer reports
// that, rather than fabricating a path from partial data.
func TestCritPathOffErrors(t *testing.T) {
	app := AppByName("FFT")
	s := Scale{Div: 64, CacheDiv: 64}
	var m *core.Machine
	s.OnMachine = func(_ string, mm *core.Machine) { m = mm }
	params := s.Params(app, app.BasicSize(), "")
	if _, err := s.RunConfig(app, s.Machine(8), params); err != nil {
		t.Fatal(err)
	}
	a := BuildArtifact(app.Name(), app, params, m)
	if a.CritPath != nil {
		t.Fatal("artifact has a critical-path record with CritPath off")
	}
	if _, err := metrics.CritPath(&a); err == nil {
		t.Fatal("CritPath() succeeded on an artifact with no record")
	}
}
