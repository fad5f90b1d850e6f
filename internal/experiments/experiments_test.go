package experiments

import (
	"strings"
	"testing"

	"origin2000/internal/scenario"
	"origin2000/internal/sim"
)

func testSession() *Session { return NewSession(TestScale) }

func TestTable1RatiosOrdered(t *testing.T) {
	// The Origin must show the lowest remote/local ratio, NUMALiiNE the
	// highest clean ratio modeled.
	var sb strings.Builder
	if err := Table1(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Origin2000") || !strings.Contains(out, "NUMALiiNE") {
		t.Fatalf("missing machines:\n%s", out)
	}
}

// TestTable1RowsAreLatencyPresets pins Table 1 to the scenario's preset
// names: one row per scenario.LatencyPresets name, in the same order, each
// with its own display label, so a preset cannot be added to one list and
// missed in the other.
func TestTable1RowsAreLatencyPresets(t *testing.T) {
	if len(table1Rows) != len(scenario.LatencyPresets) {
		t.Fatalf("Table 1 has %d rows, scenario.LatencyPresets names %d presets",
			len(table1Rows), len(scenario.LatencyPresets))
	}
	labels := map[string]bool{}
	for i, row := range table1Rows {
		if row.preset != scenario.LatencyPresets[i] {
			t.Errorf("row %d is preset %q, scenario.LatencyPresets[%d] is %q",
				i, row.preset, i, scenario.LatencyPresets[i])
		}
		if row.label == "" || labels[row.label] {
			t.Errorf("row %d (%s): label %q is empty or repeated", i, row.preset, row.label)
		}
		labels[row.label] = true
	}
}

func TestLatencyProbeMatchesPaper(t *testing.T) {
	local, clean, dirty, err := LatencyProbe(Origin2000LatenciesForTest())
	if err != nil {
		t.Fatal(err)
	}
	if local != 338*sim.Nanosecond {
		t.Errorf("local = %v, want 338ns", local)
	}
	if clean < 580*sim.Nanosecond || clean > 730*sim.Nanosecond {
		t.Errorf("remote clean = %v, want ~656ns", clean)
	}
	if dirty < 780*sim.Nanosecond || dirty > 1000*sim.Nanosecond {
		t.Errorf("remote dirty = %v, want ~892ns", dirty)
	}
}

func TestTable2RunsAllApps(t *testing.T) {
	se := testSession()
	var sb strings.Builder
	if err := Table2(se, &sb); err != nil {
		t.Fatal(err)
	}
	for _, app := range Apps() {
		if !strings.Contains(sb.String(), app.Name()) {
			t.Errorf("table 2 missing %s", app.Name())
		}
	}
}

func TestFigure2And3(t *testing.T) {
	t.Parallel()
	se := testSession()
	var sb strings.Builder
	if err := Figure2(se, &sb); err != nil {
		t.Fatal(err)
	}
	if err := Figure3(se, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Raytrace") || !strings.Contains(out, "Busy%") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestScaledSizesRespectConstraints(t *testing.T) {
	s := Scale{Div: 16, CacheDiv: 16}
	for _, app := range Apps() {
		for _, size := range app.SweepSizes() {
			v := s.Size(app, size)
			if v < 1 {
				t.Errorf("%s size %d scaled to %d", app.Name(), size, v)
			}
		}
	}
	fft := AppByName("FFT")
	v := s.Size(fft, 1<<20)
	dim := 1
	for dim*dim < v {
		dim *= 2
	}
	if dim*dim != v {
		t.Errorf("scaled FFT size %d is not a square power of two", v)
	}
}

func TestSessionCachesSequentialRuns(t *testing.T) {
	se := testSession()
	app := AppByName("Ocean")
	a, err := se.Sequential(app, app.BasicSize())
	if err != nil {
		t.Fatal(err)
	}
	b, err := se.Sequential(app, app.BasicSize())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cached sequential time differs")
	}
}

func TestRunByNameAndNames(t *testing.T) {
	se := testSession()
	var sb strings.Builder
	if err := Run("table1", se, &sb); err != nil {
		t.Fatal(err)
	}
	if err := Run("nope", se, &sb); err == nil {
		t.Fatal("unknown experiment should error")
	}
	if len(Names()) < 10 {
		t.Error("experiment list too short")
	}
}
