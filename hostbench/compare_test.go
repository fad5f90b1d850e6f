package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.00}
	scaled := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		lowerBetter    bool
		bound          float64
		want           string
	}{
		{"same code", base, base, true, 0.1, unchanged},
		{"clear gain", base, scaled(base, 0.8), true, 0.1, better},
		{"regression beyond the bound", base, scaled(base, 1.2), true, 0.1, worse},
		{"slower but within the bound", base, scaled(base, 1.05), true, 0.1, unchanged},
		{"spread wider than the bound", noisy, scaled(noisy, 1.3), true, 0.1, unresolved},
		{"noisy, but every change run is better", noisy, scaled(noisy, 0.5), true, 0.1, better},
		{"higher is better: gain", base, scaled(base, 1.2), false, 0.1, better},
		{"higher is better: regression", base, scaled(base, 0.85), false, 0.1, worse},
		{
			// The median moved by more than the parent's quartile distance,
			// but the change won only 3 of 5 pairs.
			"gain without nine tenths of the pairs",
			[]float64{1.00, 1.00, 1.10, 1.10, 1.05},
			[]float64{1.01, 1.01, 0.85, 0.85, 0.90},
			true, 0.2, unchanged,
		},
		{"no parent runs", nil, base, true, 0.1, unresolved},
	} {
		if got := verdict(tc.parent, tc.change, tc.lowerBetter, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	spec := benchSpec{EndToEnd: []metricSpec{
		{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "access_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	for _, n := range []string{"a", "b", "only-parent"} {
		spec.Workloads = append(spec.Workloads, struct {
			Name string `json:"name"`
		}{n})
	}
	rec := func(wl string, trace, failed int, pass float64) record {
		return record{Workload: wl, Trace: trace, Attempted: 10, Failed: failed, Metrics: map[string]recordMetric{
			"pass_s":       {Value: pass, Unit: "s"},
			"access_per_s": {Value: 1 / pass, Unit: "1/s"},
		}}
	}
	var parent, change []record
	for i, x := range []float64{1.00, 1.01, 0.99, 1.00, 1.02} {
		parent = append(parent, rec("a", 0, 0, x), rec("b", 0, 0, x), rec("only-parent", 0, 0, x))
		change = append(change, rec("a", 0, 0, x*1.3), rec("b", 0, i%2, x))
	}
	// A traced record's metrics are not end-to-end numbers and are ignored.
	change = append(change, rec("b", 1, 0, 50))

	got := map[string]string{}
	for _, r := range compareSets(spec, parent, change) {
		got[r.workload+" "+r.metric] = r.verdict
	}
	want := map[string]string{
		"a pass_s": worse, "a access_per_s": worse, "a fail_rate": unchanged,
		"b pass_s": unchanged, "b access_per_s": unchanged, "b fail_rate": worse,
	}
	if len(got) != len(want) {
		t.Errorf("rows %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: verdict %q, want %q", k, got[k], v)
		}
	}
}

func TestRunCompareExitsOnWorse(t *testing.T) {
	dir := t.TempDir()
	spec := benchSpec{EndToEnd: []metricSpec{{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"fig2-128"})
	write := func(name string, pass float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			res := &result{w: workload{Name: "fig2-128"}, Attempted: 3, Metrics: []metric{{Name: "pass_s", Unit: "s", Value: pass + 0.01*float64(i)}}}
			if err := appendRecord(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent, same, slow := write("parent.jsonl", 1), write("same.jsonl", 1), write("slow.jsonl", 2)
	var out bytes.Buffer
	if worse, err := runCompare(&out, spec, parent, same); err != nil || worse {
		t.Errorf("same code: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	if worse, err := runCompare(&out, spec, parent, slow); err != nil || !worse {
		t.Errorf("twice as slow: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("report does not name the verdict:\n%s", out.String())
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.jsonl"), []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCompare(&out, spec, parent, filepath.Join(dir, "bad.jsonl")); err == nil {
		t.Error("a malformed record file compared without error")
	}
}
