package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"origin2000/internal/metrics"
	"origin2000/internal/sharing"
	"origin2000/internal/sim"
)

// TestMetricsExpositionFormat is the scrape-format regression test for the
// /metrics endpoint: Prometheus rejects an exposition whose sample lines
// are not preceded by their metric's # HELP and # TYPE comments, and
// rejects duplicated metadata, so a handler edit that appends a gauge
// without them (or emits a family twice) breaks every scraper silently —
// the dashboard smoke test only greps for a few known names. This test
// builds a server with a finished, sampled, sharing-classified run
// entirely in-process and checks the exposition structurally: every
// sample's metric name must have exactly one HELP and one TYPE line, both
// before the first sample of that family, and the sharing gauges must be
// present for a run that carries a report.
func TestMetricsExpositionFormat(t *testing.T) {
	srv := newServer(64)
	srv.runs = []*runState{
		{
			ID: 0, Label: "FFT-p4", App: "FFT", Procs: 4, Size: 4096,
			Status: "done", ElapsedMs: 12.5,
			samples: []metrics.MachineSample{{
				At:   3 * sim.Millisecond,
				Busy: 2 * sim.Millisecond,
			}},
			sharing: &sharing.Report{
				Procs: 4, Nodes: 2, Blocks: 8,
				Split:     sharing.Split{Coherence: 10, TrueSharing: 6, FalseSharing: 3, Pending: 1},
				Imbalance: 1.5,
			},
		},
		// A second run that is still running, has no samples and no sharing
		// report: families must still emit their metadata exactly once, and
		// per-run lines must simply be absent, never emitted with defaults.
		{ID: 1, Label: "FFT-p8", App: "FFT", Procs: 8, Status: "running"},
	}

	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	body := get(t, ts.URL+"/metrics")

	type meta struct{ help, typ, sample bool }
	families := map[string]*meta{}
	fam := func(name string) *meta {
		if families[name] == nil {
			families[name] = &meta{}
		}
		return families[name]
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, rest, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			f := fam(name)
			if f.help {
				t.Errorf("duplicate # HELP for %s", name)
			}
			if f.sample {
				t.Errorf("# HELP for %s appears after its samples", name)
			}
			if strings.TrimSpace(rest) == "" {
				t.Errorf("empty help text for %s", name)
			}
			f.help = true
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			f := fam(name)
			if f.typ {
				t.Errorf("duplicate # TYPE for %s", name)
			}
			if f.sample {
				t.Errorf("# TYPE for %s appears after its samples", name)
			}
			if typ != "gauge" {
				t.Errorf("%s has type %q, want gauge", name, typ)
			}
			f.typ = true
		case strings.HasPrefix(line, "#") || strings.TrimSpace(line) == "":
			// other comments / blank lines are fine
		default:
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			f := fam(name)
			if !f.help || !f.typ {
				t.Errorf("sample for %s not preceded by # HELP and # TYPE: %q", name, line)
			}
			f.sample = true
		}
	}
	// The sharing gauges must be exposed for the classified run — with the
	// false-sharing gauge including unsettled (pending) misses — and only
	// for it: run 1 has no report, so no line with run="1".
	for line, want := range map[string]string{
		`origin_coherence_misses{run="0",app="FFT",procs="4"} 10`:    "coherence gauge",
		`origin_true_sharing_misses{run="0",app="FFT",procs="4"} 6`:  "true-sharing gauge",
		`origin_false_sharing_misses{run="0",app="FFT",procs="4"} 4`: "false-sharing gauge (3 settled + 1 pending)",
		`origin_home_imbalance{run="0",app="FFT",procs="4"} 1.5`:     "imbalance gauge",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("/metrics missing %s: %q\n%s", want, line, body)
		}
	}
	for _, name := range []string{
		"origin_coherence_misses", "origin_true_sharing_misses",
		"origin_false_sharing_misses", "origin_home_imbalance",
	} {
		if strings.Contains(body, name+`{run="1"`) {
			t.Errorf("%s emitted for a run without a sharing report", name)
		}
	}
	if !strings.Contains(body, `origin_run_status{run="1",app="FFT",procs="8"} 0`) {
		t.Error("running run missing its status gauge")
	}
}
