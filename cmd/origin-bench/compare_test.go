package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func snap(results ...Result) Snapshot {
	return Snapshot{Schema: "origin-bench/v1", Results: results}
}

func TestCompareFlagsOnlyRegressionsBeyondThreshold(t *testing.T) {
	old := snap(
		Result{Name: "access:hit", NsPerOp: 100, AllocsPerOp: 0},
		Result{Name: "access:local-miss", NsPerOp: 1000},
		Result{Name: "scheduler:round-trip", NsPerOp: 500},
		Result{Name: "gone", NsPerOp: 50},
	)
	cur := snap(
		Result{Name: "access:hit", NsPerOp: 109, AllocsPerOp: 0}, // +9%: ok
		Result{Name: "access:local-miss", NsPerOp: 1201},         // +20.1%: regressed
		Result{Name: "scheduler:round-trip", NsPerOp: 400},       // improvement
		Result{Name: "new-measurement", NsPerOp: 1},              // no baseline
	)
	diffs := compareSnapshots(old, cur, regressionThreshold)
	if len(diffs) != 3 {
		t.Fatalf("got %d diffs, want 3 (matched names only): %v", len(diffs), diffs)
	}
	// Sorted worst-first.
	if diffs[0].Name != "access:local-miss" || !diffs[0].Regressed {
		t.Fatalf("worst diff = %+v, want access:local-miss regressed", diffs[0])
	}
	for _, d := range diffs[1:] {
		if d.Regressed {
			t.Errorf("%s flagged at %+.1f%%, below threshold", d.Name, 100*d.Ratio)
		}
	}
	bad := regressions(diffs)
	if len(bad) != 1 || bad[0].Name != "access:local-miss" {
		t.Fatalf("regressions = %v", bad)
	}
}

func TestCompareExactThresholdIsNotRegression(t *testing.T) {
	old := snap(Result{Name: "x", NsPerOp: 100})
	cur := snap(Result{Name: "x", NsPerOp: 110}) // exactly +10%
	if bad := regressions(compareSnapshots(old, cur, 0.10)); len(bad) != 0 {
		t.Fatalf("exact threshold flagged as regression: %v", bad)
	}
	cur = snap(Result{Name: "x", NsPerOp: 110.2})
	if bad := regressions(compareSnapshots(old, cur, 0.10)); len(bad) != 1 {
		t.Fatal("just past threshold not flagged")
	}
}

func TestCompareReportsAllocChanges(t *testing.T) {
	old := snap(Result{Name: "access:hit", NsPerOp: 100, AllocsPerOp: 0})
	cur := snap(Result{Name: "access:hit", NsPerOp: 100, AllocsPerOp: 2})
	d := compareSnapshots(old, cur, 0.10)[0]
	if !strings.Contains(d.String(), "allocs 0 -> 2") {
		t.Fatalf("alloc change not rendered: %s", d)
	}
}

func TestLatestSnapshotPathPicksHighestContiguous(t *testing.T) {
	dir := t.TempDir()
	if got := latestSnapshotPath(dir); got != "" {
		t.Fatalf("empty dir returned %q", got)
	}
	for _, n := range []string{"BENCH_1.json", "BENCH_2.json", "BENCH_3.json"} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := latestSnapshotPath(dir); got != filepath.Join(dir, "BENCH_3.json") {
		t.Fatalf("latest = %q, want BENCH_3.json", got)
	}
}

func TestCompareAgainstBaselineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	base := snap(
		Result{Name: "access:hit", NsPerOp: 100},
		Result{Name: "directory:write-fanout", NsPerOp: 200},
	)
	data, _ := json.Marshal(base)
	path := filepath.Join(dir, "BENCH_1.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	healthy := snap(
		Result{Name: "access:hit", NsPerOp: 104},
		Result{Name: "directory:write-fanout", NsPerOp: 190},
	)
	report, err := compareAgainstBaseline(path, healthy, regressionThreshold)
	if err != nil {
		t.Fatalf("healthy snapshot failed: %v\n%s", err, report)
	}
	if !strings.Contains(report, "access:hit") {
		t.Fatalf("report lacks per-measurement rows:\n%s", report)
	}

	slow := snap(
		Result{Name: "access:hit", NsPerOp: 150},
		Result{Name: "directory:write-fanout", NsPerOp: 190},
	)
	report, err = compareAgainstBaseline(path, slow, regressionThreshold)
	if err == nil {
		t.Fatal("50% regression not failed")
	}
	if !strings.Contains(err.Error(), "access:hit") || !strings.Contains(err.Error(), "+50.0%") {
		t.Fatalf("diff not clear: %v", err)
	}
	if !strings.Contains(report, "REGRESSED") {
		t.Fatalf("report does not mark the regression:\n%s", report)
	}

	if _, err := compareAgainstBaseline(filepath.Join(dir, "BENCH_9.json"), healthy, 0.1); err == nil {
		t.Fatal("missing baseline not an error")
	}
}

func TestCompareFailsOnMissingBaselineRow(t *testing.T) {
	dir := t.TempDir()
	base := snap(
		Result{Name: "access:hit", NsPerOp: 100},
		Result{Name: "engine:serial fig2-128", NsPerOp: 5e9},
	)
	data, _ := json.Marshal(base)
	path := filepath.Join(dir, "BENCH_1.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The engine row vanished: must fail loudly, not silently skip.
	cur := snap(Result{Name: "access:hit", NsPerOp: 100})
	report, err := compareAgainstBaseline(path, cur, regressionThreshold)
	if err == nil {
		t.Fatal("vanished baseline row not an error")
	}
	if !strings.Contains(err.Error(), "engine:serial fig2-128") {
		t.Fatalf("error does not name the missing row: %v", err)
	}
	if !strings.Contains(report, "MISSING") {
		t.Fatalf("report does not mark the missing row:\n%s", report)
	}
	// New rows are reported but never fatal (a growing suite is healthy).
	grown := snap(
		Result{Name: "access:hit", NsPerOp: 100},
		Result{Name: "engine:serial fig2-128", NsPerOp: 5e9},
		Result{Name: "scenario:dragonfly fig2-128", NsPerOp: 4e9},
	)
	report, err = compareAgainstBaseline(path, grown, regressionThreshold)
	if err != nil {
		t.Fatalf("new row failed the comparison: %v", err)
	}
	if !strings.Contains(report, "new measurement, no baseline") {
		t.Fatalf("report does not announce the new row:\n%s", report)
	}
}

func TestCompareHostChangeIsInformational(t *testing.T) {
	// Same row, 1-core baseline vs 8-core current: a 3x wall-clock shift
	// is a host property, not a regression.
	old := snap(Result{Name: "engine:parallel workers=4 fig2-128", NsPerOp: 9e9, CPUs: 1})
	old.CPUs = 1
	cur := snap(Result{Name: "engine:parallel workers=4 fig2-128", NsPerOp: 2.7e10, CPUs: 8})
	cur.CPUs = 8
	diffs := compareSnapshots(old, cur, regressionThreshold)
	if len(diffs) != 1 {
		t.Fatalf("got %d diffs, want 1", len(diffs))
	}
	d := diffs[0]
	if !d.HostChanged {
		t.Fatal("cpu mismatch not marked HostChanged")
	}
	if d.Regressed {
		t.Fatal("cpu-mismatched row counted as regression")
	}
	if !strings.Contains(d.String(), "host changed") {
		t.Fatalf("rendering does not flag the host change: %s", d)
	}
	// Per-row CPUs beats the snapshot-level field when present.
	if got := rowCPUs(old, old.Results[0]); got != 1 {
		t.Fatalf("rowCPUs = %d, want per-row 1", got)
	}
	if got := rowCPUs(old, Result{Name: "x"}); got != 1 {
		t.Fatalf("rowCPUs fallback = %d, want snapshot-level 1", got)
	}
}

func TestCompareScenarioChangeIsInformational(t *testing.T) {
	// Same row name, but the machines differ (a scenario rename kept the
	// name while the spec changed): a 3x shift is a machine property, not
	// a code regression.
	old := snap(Result{Name: "scenario:mesh fig2-128", NsPerOp: 1e9, Scenario: "mesh", ScenarioHash: "aaaaaaaaaaaa"})
	cur := snap(Result{Name: "scenario:mesh fig2-128", NsPerOp: 3e9, Scenario: "mesh", ScenarioHash: "bbbbbbbbbbbb"})
	diffs := compareSnapshots(old, cur, regressionThreshold)
	if len(diffs) != 1 {
		t.Fatalf("got %d diffs, want 1", len(diffs))
	}
	d := diffs[0]
	if !d.ScenarioChanged {
		t.Fatal("scenario-hash mismatch not marked ScenarioChanged")
	}
	if d.Regressed {
		t.Fatal("cross-scenario row counted as regression")
	}
	if !strings.Contains(d.String(), "scenario changed") {
		t.Fatalf("rendering does not flag the scenario change: %s", d)
	}
	// An empty hash is the default machine: default-vs-default still
	// compares like-for-like and regresses normally.
	old = snap(Result{Name: "access:hit", NsPerOp: 100})
	cur = snap(Result{Name: "access:hit", NsPerOp: 150})
	if bad := regressions(compareSnapshots(old, cur, regressionThreshold)); len(bad) != 1 {
		t.Fatalf("default-machine regression not flagged: %v", bad)
	}
	// Default baseline vs a scenario-stamped current row: different
	// machines, informational.
	old = snap(Result{Name: "scenario:mesh fig2-128", NsPerOp: 1e9})
	cur = snap(Result{Name: "scenario:mesh fig2-128", NsPerOp: 3e9, Scenario: "mesh", ScenarioHash: "cccccccccccc"})
	if bad := regressions(compareSnapshots(old, cur, regressionThreshold)); len(bad) != 0 {
		t.Fatalf("cross-machine pair flagged as regression: %v", bad)
	}
}

func TestSpeedupClaim(t *testing.T) {
	if got := speedupClaim(1); got != "unproven" {
		t.Fatalf("speedupClaim(1) = %q", got)
	}
	if got := speedupClaim(8); got != "measured" {
		t.Fatalf("speedupClaim(8) = %q", got)
	}
}

func TestNextOutRecordsSlotNumber(t *testing.T) {
	dir := t.TempDir()
	wd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	name, n := nextOut()
	if name != "BENCH_1.json" || n != 1 {
		t.Fatalf("empty dir: nextOut() = %q, %d", name, n)
	}
	for _, f := range []string{"BENCH_1.json", "BENCH_2.json"} {
		if err := os.WriteFile(f, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	name, n = nextOut()
	if name != "BENCH_3.json" || n != 3 {
		t.Fatalf("after 1,2: nextOut() = %q, %d", name, n)
	}
}

func TestSeqOfParsesSlotFromPath(t *testing.T) {
	for _, tc := range []struct {
		path string
		want int
	}{
		{"BENCH_7.json", 7},
		{filepath.Join("some", "dir", "BENCH_12.json"), 12},
		{"custom.json", 0},
	} {
		if got := seqOf(tc.path); got != tc.want {
			t.Errorf("seqOf(%q) = %d, want %d", tc.path, got, tc.want)
		}
	}
}
