package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"origin2000/internal/hostprof"
	"origin2000/internal/metrics"
	"origin2000/internal/scenario"
	"origin2000/internal/sim"
	"origin2000/internal/trace"
)

// TestDashSmoke is the CI headless smoke test: boot the server on an
// ephemeral port, start a 4-processor FFT sweep, and assert that the SSE
// stream, the Prometheus endpoint, the CSV export and the artifact export
// all deliver well-formed payloads. On failure the run's CSV series is
// written to the ORIGIN_TRACE_ARTIFACTS directory (when set) so CI uploads
// it with the failure.
func TestDashSmoke(t *testing.T) {
	srv := newServer(64)
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	saveSeriesOnFailure := func() {
		dir := trace.ArtifactDir()
		if !t.Failed() || dir == "" {
			return
		}
		srv.mu.Lock()
		defer srv.mu.Unlock()
		if len(srv.runs) == 0 {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		path := filepath.Join(dir, "dash-smoke-run0.csv")
		f, err := os.Create(path)
		if err != nil {
			t.Logf("artifact create: %v", err)
			return
		}
		metrics.WriteMachineCSV(f, srv.runs[0].samples)
		f.Close()
		t.Logf("wrote failing run's series to %s", path)
	}
	defer saveSeriesOnFailure()

	// Subscribe to SSE before starting, so no event can be missed.
	evResp, err := http.Get(ts.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}

	// The dashboard page must be served.
	page := get(t, ts.URL+"/")
	if !strings.Contains(page, "origin-dash") || !strings.Contains(page, "EventSource") {
		t.Error("dashboard HTML missing expected content")
	}

	// Start a 4-processor FFT sweep.
	var started struct {
		Runs []int `json:"runs"`
	}
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/api/start?app=FFT&procs=4&scale=64")), &started); err != nil {
		t.Fatalf("start response: %v", err)
	}
	if len(started.Runs) != 1 {
		t.Fatalf("started runs = %v, want one", started.Runs)
	}

	// Read SSE until the run completes: we must see at least one
	// well-formed sample event and the final done run event.
	type sampleEvent struct {
		Run int `json:"run"`
		metrics.MachineSample
	}
	var sawSample, sawDone bool
	deadline := time.After(60 * time.Second)
	events := make(chan [2]string, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(evResp.Body)
		var name string
		for sc.Scan() {
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				name = v
			} else if v, ok := strings.CutPrefix(line, "data: "); ok {
				events <- [2]string{name, v}
			}
		}
	}()
	for !(sawSample && sawDone) {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("SSE stream closed before the run finished")
			}
			switch ev[0] {
			case "sample":
				var se sampleEvent
				if err := json.Unmarshal([]byte(ev[1]), &se); err != nil {
					t.Fatalf("malformed sample event %q: %v", ev[1], err)
				}
				if se.At <= 0 {
					t.Fatalf("sample with non-positive virtual time: %+v", se)
				}
				sawSample = true
			case "run":
				var rs runState
				if err := json.Unmarshal([]byte(ev[1]), &rs); err != nil {
					t.Fatalf("malformed run event %q: %v", ev[1], err)
				}
				if rs.Status == "failed" {
					t.Fatalf("run failed: %s", rs.Error)
				}
				if rs.Status == "done" {
					if rs.ElapsedMs <= 0 {
						t.Fatalf("done run with no elapsed time: %+v", rs)
					}
					sawDone = true
				}
			}
		case <-deadline:
			t.Fatalf("timed out waiting for SSE (sample=%v done=%v)", sawSample, sawDone)
		}
	}

	// Prometheus exposition must carry the run's gauges.
	prom := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"# TYPE origin_run_status gauge",
		`origin_run_status{run="0",app="FFT",procs="4"} 1`,
		`origin_run_elapsed_ms{run="0",app="FFT",procs="4"}`,
		"# TYPE origin_busy_ms gauge",
		"origin_virtual_time_ms",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q\n%s", want, prom)
		}
	}

	// CSV export: header plus at least one row, rectangular.
	csv := get(t, ts.URL+"/api/csv?run=0")
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "at_ps,epoch,busy_ps") {
		t.Errorf("CSV header = %q", lines[0])
	}
	cols := strings.Count(lines[0], ",")
	for i, line := range lines[1:] {
		if strings.Count(line, ",") != cols {
			t.Errorf("CSV row %d not rectangular: %q", i, line)
		}
	}

	// Artifact export: schema-valid JSON usable as an origin-diff side.
	var art metrics.Artifact
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/api/artifact?run=0")), &art); err != nil {
		t.Fatalf("artifact: %v", err)
	}
	if art.Schema != metrics.ArtifactSchema || len(art.PerProc) != 4 || len(art.Machine) == 0 {
		t.Errorf("artifact malformed: schema=%q procs=%d samples=%d",
			art.Schema, len(art.PerProc), len(art.Machine))
	}

	// Host-time profile: the engine self-observability report must be
	// served for a finished run (dash sweeps always profile).
	var hp hostprof.Report
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/api/hostprof?run=0")), &hp); err != nil {
		t.Fatalf("hostprof: %v", err)
	}
	if hp.WallNS <= 0 || hp.Workers < 1 {
		t.Errorf("hostprof report malformed: wall_ns=%d workers=%d", hp.WallNS, hp.Workers)
	}

	// Unknown run ids are 404s, not panics.
	if resp, err := http.Get(ts.URL + "/api/csv?run=99"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("csv for unknown run: %v %v", resp.Status, err)
	}
}

// TestStartScenarioAttribution pins per-scenario attribution in the
// dashboard: a sweep started with ?scenario= must carry the scenario's name
// and spec hash on its run state (so two machines' curves are never
// conflated), label the run with the machine, and still run to completion;
// an unknown scenario must be rejected up front, not fail mid-sweep.
func TestStartScenarioAttribution(t *testing.T) {
	srv := newServer(64)
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	mesh, ok := scenario.Named("mesh")
	if !ok {
		t.Fatal("mesh preset missing")
	}
	get(t, ts.URL+"/api/start?app=FFT&procs=4&scale=64&scenario=mesh")

	var runs []runState
	deadline := time.Now().Add(60 * time.Second)
	for {
		if err := json.Unmarshal([]byte(get(t, ts.URL+"/api/runs")), &runs); err != nil {
			t.Fatal(err)
		}
		if len(runs) == 1 && runs[0].Status != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run did not finish: %+v", runs)
		}
		time.Sleep(50 * time.Millisecond)
	}
	rs := runs[0]
	if rs.Status != "done" {
		t.Fatalf("mesh run %s: %s", rs.Status, rs.Error)
	}
	if rs.Scenario != "mesh" || rs.ScenarioHash != mesh.Hash() {
		t.Errorf("run attribution = %q [%s], want mesh [%s]", rs.Scenario, rs.ScenarioHash, mesh.Hash())
	}
	if !strings.Contains(rs.Label, "@mesh") {
		t.Errorf("label %q does not name the machine", rs.Label)
	}

	// Unknown scenarios are a client error at start time.
	resp, err := http.Get(ts.URL + "/api/start?app=FFT&procs=4&scenario=no-such-machine")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown scenario: %s, want 400", resp.Status)
	}
}

// TestEventsDisconnect is the goroutine-leak regression test for the SSE
// endpoint: a handler blocked waiting for events must exit promptly when its
// client disconnects (it unregisters its subscription on the way out), even
// though no event ever arrives to wake it. A leaked handler would pin its
// subscriber channel forever and the server would slowly accumulate both.
func TestEventsDisconnect(t *testing.T) {
	srv := newServer(64)
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	subsLen := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.subs)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (subscribers=%d)", what, subsLen())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	before := runtime.NumGoroutine()

	// Connect several SSE clients through cancellable requests and wait for
	// each handler to register its subscription (the preamble is written
	// before registration, so reading it alone is not enough).
	const clients = 4
	var cancels []context.CancelFunc
	var bodies []io.Closer
	for i := 0; i < clients; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/api/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, resp.Body)
	}
	defer func() {
		for _, c := range cancels {
			c()
		}
		for _, b := range bodies {
			b.Close()
		}
	}()
	waitFor("all clients to subscribe", func() bool { return subsLen() == clients })

	// Drop every client. The handlers are parked in their event select; only
	// the request context's cancellation can free them.
	for _, c := range cancels {
		c()
	}
	for _, b := range bodies {
		b.Close()
	}
	waitFor("handlers to unsubscribe after disconnect", func() bool { return subsLen() == 0 })

	// The handler goroutines themselves must be gone too, not just their
	// subscriptions. Allow slack for the test server's own pool churn.
	waitFor("handler goroutines to exit", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body)
}

// TestStartScenarioPresetOnly: /api/start's scenario= names a preset,
// never a file. A JSON file the server could read, reached by an absolute
// path or by a ../ path, gets a 400 that lists the presets and echoes
// nothing of the file.
func TestStartScenarioPresetOnly(t *testing.T) {
	secret := filepath.Join(t.TempDir(), "secret.json")
	if err := os.WriteFile(secret, []byte(`{"password": "hunter2"}`), 0o600); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(wd, secret)
	if err != nil || !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		t.Fatalf("no ../ path from %s to %s: %q, %v", wd, secret, rel, err)
	}
	ts := httptest.NewServer(newServer(64).mux())
	defer ts.Close()
	for _, path := range []string{secret, rel} {
		resp, err := http.Get(ts.URL + "/api/start?procs=4&scenario=" + url.QueryEscape(path))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || strings.Contains(string(body), "password") ||
			!strings.Contains(string(body), strings.Join(scenario.Names(), ", ")) {
			t.Errorf("scenario=%s: %s %q; want a 400 listing the presets and nothing of the file", path, resp.Status, body)
		}
	}
}

// FuzzStartQuery drives /api/start's parser with arbitrary queries. No
// query may panic, and an accepted one must describe a sweep the machine
// can run: a preset scenario, or the server's default when the query names
// none; every processor count at least 1 and within the scenario's
// directory capacity; a scale of at least 1; and, when interval_us is
// given, an interval of exactly that many microseconds.
func FuzzStartQuery(f *testing.F) {
	for _, q := range []string{
		"",
		"app=FFT&procs=4&scale=64",
		"app=Ocean&procs=4,8,16&interval_us=50&scenario=mesh",
		"procs=200&scenario=limited",
		"procs=0",
		"procs=4,,8",
		"scale=-1",
		"interval_us=18446744073710",
		"interval_us=9223372036854",
		"interval_us=-5",
		"app=Nope",
		"scenario=../testdata/x.json",
	} {
		f.Add(q)
	}
	srv := newServer(64)
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as Request.URL.Query does
		sq, err := srv.parseStart(q)
		if err != nil {
			return
		}
		want := srv.scenario
		if v := q.Get("scenario"); v != "" {
			preset, ok := scenario.Named(v)
			if !ok {
				t.Fatalf("accepted scenario %q, which is not a preset", v)
			}
			want = preset
		}
		if sq.spec.Hash() != want.Hash() {
			t.Errorf("scenario=%q ran machine %s, want %s", q.Get("scenario"), sq.spec.Name, want.Name)
		}
		format, err := sq.spec.Format()
		if err != nil {
			t.Fatalf("accepted scenario %q has no directory format: %v", q.Get("scenario"), err)
		}
		if len(sq.procs) == 0 {
			t.Fatal("accepted a sweep with no processor count")
		}
		for _, p := range sq.procs {
			if p < 1 || p > format.Capacity() {
				t.Errorf("accepted %d processors; the %s format holds 1 to %d", p, format.Kind(), format.Capacity())
			}
		}
		if sq.scale < 1 {
			t.Errorf("accepted scale %d", sq.scale)
		}
		if v := q.Get("interval_us"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || sq.interval <= 0 || sq.interval%sim.Microsecond != 0 || int64(sq.interval/sim.Microsecond) != n {
				t.Errorf("interval_us=%q became an interval of %d ps", v, sq.interval)
			}
		} else if sq.interval != 0 {
			t.Errorf("no interval_us, but an interval of %d ps", sq.interval)
		}
	})
}
