package experiments

import (
	"slices"
	"strings"
	"testing"

	"origin2000/internal/core"
	"origin2000/internal/scenario"
	"origin2000/internal/sim"
)

func testSession() *Session { return NewSession(TestScale) }

// TestTable1RatiosOrdered probes every Table 1 preset. The Origin must
// show the lowest remote/local ratios, clean and dirty, and NUMA-Q the
// highest clean ratio: the paper's 2500/240 is above NUMALiiNE's
// 2400/240.
func TestTable1RatiosOrdered(t *testing.T) {
	clean, dirty := map[string]float64{}, map[string]float64{}
	for _, name := range scenario.LatencyPresets {
		local, c, d, err := LatencyProbe(core.Table1Latencies(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		clean[name], dirty[name] = float64(c)/float64(local), float64(d)/float64(local)
	}
	for _, name := range scenario.LatencyPresets {
		if name != "origin2000" && (clean[name] <= clean["origin2000"] || dirty[name] <= dirty["origin2000"]) {
			t.Errorf("%s ratios %.2f:1 clean, %.2f:1 dirty do not exceed the Origin's %.2f:1 and %.2f:1",
				name, clean[name], dirty[name], clean["origin2000"], dirty["origin2000"])
		}
		if name != "numa-q" && clean[name] >= clean["numa-q"] {
			t.Errorf("%s clean ratio %.2f:1 is not below NUMA-Q's %.2f:1", name, clean[name], clean["numa-q"])
		}
	}
	var sb strings.Builder
	if err := Table1(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Origin2000") || !strings.Contains(out, "NUMALiiNE") {
		t.Fatalf("missing machines:\n%s", out)
	}
	// A value the paper does not give prints as "-", never as 0.
	for _, f := range strings.Fields(out) {
		if parts := strings.Split(f, "/"); len(parts) == 3 && slices.Contains(parts, "0") {
			t.Errorf("paper(L/C/D) column prints a missing value as 0: %s", f)
		}
	}
	if !strings.Contains(out, "240/2500/-") {
		t.Errorf("NUMA-Q's paper column does not read 240/2500/-:\n%s", out)
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

// TestRunByNameAndNames: Names lists every name Run accepts, the aliases
// fig5 to fig8 and sec62 included, once each; Run refuses any other; and
// All runs the paper's experiments in paper order.
func TestRunByNameAndNames(t *testing.T) {
	se := testSession()
	var sb strings.Builder
	if err := Run("table1", se, &sb); err != nil {
		t.Fatal(err)
	}
	if err := Run("nope", se, &sb); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("unknown experiment: err = %v, want one naming it", err)
	}
	names := Names()
	for _, n := range []string{"table1", "table2", "table3", "fig2", "fig3", "fig4",
		"fig5", "fig6", "fig7", "fig8", "fig5-8", "fig9", "fig10",
		"sec61", "sec62", "sec63", "sec71", "sec72", "ablation", "all"} {
		if !slices.Contains(names, n) {
			t.Errorf("Names() = %v lacks %q, which Run accepts", names, n)
		}
	}
	sorted := slices.Clone(names)
	slices.Sort(sorted)
	if len(slices.Compact(sorted)) != len(names) {
		t.Errorf("Names() = %v repeats a name", names)
	}
	var all []string
	for _, e := range experimentList {
		if e.inAll {
			all = append(all, e.name)
		}
	}
	if want := []string{"table1", "table2", "fig2", "fig3", "fig4", "fig5-8", "fig9", "fig10",
		"table3", "sec61", "sec63", "sec71", "sec72"}; !slices.Equal(all, want) {
		t.Errorf("All runs %v, want %v", all, want)
	}
}
