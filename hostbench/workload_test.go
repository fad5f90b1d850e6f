package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestGateCountsEveryFailure(t *testing.T) {
	runs := []runSpec{{"FFT", 4}, {"Ocean", 4}}
	g := &gate{workload: "w", runs: runs}
	g.setReference([]runOut{{fp: "a"}, {fp: "b"}})
	g.check("ok", []runOut{{fp: "a"}, {fp: "b"}})
	if g.failed != 0 {
		t.Fatalf("matching passes failed %d runs", g.failed)
	}
	g.check("bad", []runOut{{fp: "x"}, {fp: "b", err: errors.New("verify: checksum")}})
	if g.attempted != 6 || g.failed != 2 {
		t.Errorf("attempted %d failed %d, want 6 and 2", g.attempted, g.failed)
	}
}

// TestSmokeEveryWorkload runs every workload for one timed pass at a small
// scale, end to end, and table2-seq traced. It checks that every metric
// BENCHMARK.json lists is printed with its unit, that nothing fails, and
// that the 2-worker engine reproduces the serial engine's results. It
// makes no assertion about time.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads()))
	}
	fps := map[string][]string{}
	for _, sw := range spec.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %s is not defined", sw.Name)
			continue
		}
		modes := []bool{false}
		if w.Name == "table2-seq" {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			res, err := measure(options{w: w, seed: 42, seconds: 0, traced: traced, div: 64})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d runs failed", w.Name, traced, res.Failed, res.Attempted)
			}
			if _, err := resultLine(res, spec); err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
			}
			var out bytes.Buffer
			printResult(&out, res)
			list := spec.EndToEnd
			if traced {
				list = spec.PerLayer
			}
			for _, m := range append(list, metricSpec{Name: "fail_rate", Unit: "ratio"}) {
				if !printedWithUnit(out.String(), m.Name, m.Unit) {
					t.Errorf("%s traced=%v: %s not printed with unit %s", w.Name, traced, m.Name, m.Unit)
				}
			}
			fps[w.Name] = res.Fingerprints
		}
	}
	if a, b := strings.Join(fps["fig2-128"], ","), strings.Join(fps["fig2-128-w2"], ","); a == "" || a != b {
		t.Errorf("fig2-128 fingerprints %s, fig2-128-w2 %s", a, b)
	}
}

func printedWithUnit(out, name, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}
