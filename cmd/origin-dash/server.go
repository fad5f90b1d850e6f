package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"origin2000/cmd/internal/runflags"
	"origin2000/internal/core"
	"origin2000/internal/experiments"
	"origin2000/internal/hostprof"
	"origin2000/internal/metrics"
	"origin2000/internal/scenario"
	"origin2000/internal/sharing"
	"origin2000/internal/sim"
	"origin2000/internal/workload"
)

//go:embed dash.html
var dashHTML []byte

// runState is one sweep run's dashboard-visible state. The embedded series
// grows while the run is live; the mutex-protected server owns all of it.
type runState struct {
	ID        int     `json:"id"`
	Label     string  `json:"label"`
	App       string  `json:"app"`
	Procs     int     `json:"procs"`
	Size      int     `json:"size"`
	Status    string  `json:"status"` // "running", "done", "failed"
	Error     string  `json:"error,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Scenario attribution: which machine this run simulated. Rows from
	// different scenarios carry different hashes, so dashboard clients can
	// group or separate curves per machine.
	Scenario     string `json:"scenario,omitempty"`
	ScenarioHash string `json:"scenario_hash,omitempty"`

	samples  []metrics.MachineSample
	artifact metrics.Artifact
	hostprof *hostprof.Report
	sharing  *sharing.Report
}

// sseEvent is one Server-Sent Event: a named payload.
type sseEvent struct {
	name string
	data []byte
}

// server owns the runs and the SSE subscriber set.
type server struct {
	defaultScale int
	scenario     scenario.Spec // default machine for sweeps; per-sweep override via ?scenario=

	mu   sync.Mutex
	runs []*runState
	subs map[chan sseEvent]struct{}
}

func newServer(defaultScale int) *server {
	if defaultScale < 1 {
		defaultScale = 64
	}
	return &server{
		defaultScale: defaultScale,
		scenario:     scenario.Default(),
		subs:         make(map[chan sseEvent]struct{}),
	}
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/api/start", s.handleStart)
	mux.HandleFunc("/api/runs", s.handleRuns)
	mux.HandleFunc("/api/events", s.handleEvents)
	mux.HandleFunc("/api/csv", s.handleCSV)
	mux.HandleFunc("/api/artifact", s.handleArtifact)
	mux.HandleFunc("/api/hostprof", s.handleHostprof)
	mux.HandleFunc("/api/sharing", s.handleSharing)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(dashHTML)
}

// broadcast fans an event out to every subscriber; slow subscribers drop
// events rather than stall the simulation.
func (s *server) broadcast(ev sseEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ch := range s.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

func (s *server) runEvent(rs *runState) sseEvent {
	b, _ := json.Marshal(rs)
	return sseEvent{name: "run", data: b}
}

// startQuery is one parsed /api/start request: the sweep to launch.
type startQuery struct {
	app      workload.App
	procs    []int
	scale    int
	interval sim.Time // 0 selects the sampler's default
	spec     scenario.Spec
}

// parseStart parses and checks /api/start's query. It starts no run.
func (s *server) parseStart(q url.Values) (startQuery, error) {
	appName := q.Get("app")
	if appName == "" {
		appName = "FFT"
	}
	sq := startQuery{app: experiments.AppByName(appName), scale: s.defaultScale, spec: s.scenario}
	if sq.app == nil {
		return sq, fmt.Errorf("unknown app %q", appName)
	}
	procSpec := q.Get("procs")
	if procSpec == "" {
		procSpec = "4,8"
	}
	for _, f := range strings.Split(procSpec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return sq, fmt.Errorf("bad procs %q", f)
		}
		sq.procs = append(sq.procs, n)
	}
	if v := q.Get("scale"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return sq, fmt.Errorf("bad scale %q", v)
		}
		sq.scale = n
	}
	if v := q.Get("interval_us"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 1 {
			return sq, fmt.Errorf("bad interval_us %q", v)
		}
		if sq.interval, err = runflags.Micros("interval_us", n); err != nil {
			return sq, err
		}
	}
	if v := q.Get("scenario"); v != "" {
		// A query names a preset only: a spec file is the operator's
		// -scenario flag, never a path a client chooses.
		sc, ok := scenario.Named(v)
		if !ok {
			return sq, fmt.Errorf("unknown scenario %q (presets: %s)", v, strings.Join(scenario.Names(), ", "))
		}
		sq.spec = sc
	}
	for _, procs := range sq.procs {
		if err := sq.spec.Validate(procs); err != nil {
			return sq, err
		}
	}
	return sq, nil
}

// handleStart launches a sweep: one run per requested processor count.
func (s *server) handleStart(w http.ResponseWriter, r *http.Request) {
	sq, err := s.parseStart(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ids := make([]int, 0, len(sq.procs))
	s.mu.Lock()
	for _, procs := range sq.procs {
		label := fmt.Sprintf("%s p%d /%d", sq.app.Name(), procs, sq.scale)
		if !sq.spec.IsDefault() {
			label += " @" + sq.spec.Name
		}
		rs := &runState{
			ID:           len(s.runs),
			Label:        label,
			App:          sq.app.Name(),
			Procs:        procs,
			Status:       "running",
			Scenario:     sq.spec.Name,
			ScenarioHash: sq.spec.Hash(),
		}
		s.runs = append(s.runs, rs)
		ids = append(ids, rs.ID)
	}
	s.mu.Unlock()

	go s.sweep(sq.app, sq.spec, ids, sq.procs, sq.scale, sq.interval)

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"runs": ids})
}

// sweep executes the requested runs sequentially, streaming samples as the
// simulation produces them.
func (s *server) sweep(wapp workload.App, spec scenario.Spec, ids, procCounts []int, scaleDiv int, interval sim.Time) {
	for i, procs := range procCounts {
		id := ids[i]
		// Dashboard sweeps always sample metrics, which pins every run to
		// one host worker (core.EffectiveWorkers), so they use the default
		// serial engine.
		sc := experiments.Scale{Div: scaleDiv, CacheDiv: scaleDiv, Scenario: &spec}
		sc.Trace.Enabled = true
		// Host-time profiling is schedule-neutral, so it is always on for
		// dashboard runs; the panel shows where the engine spends host time.
		sc.HostProf = true
		// Metrics already pin the run to one worker, so the sharing
		// classifier rides along for free; its report feeds /api/sharing
		// and the sharing panel.
		sc.Sharing = true
		sc.Metrics = metrics.Options{
			Enabled:  true,
			Interval: interval,
			OnMachineSample: func(ms metrics.MachineSample) {
				s.mu.Lock()
				rs := s.runs[id]
				rs.samples = append(rs.samples, ms)
				s.mu.Unlock()
				b, _ := json.Marshal(struct {
					Run int `json:"run"`
					metrics.MachineSample
				}{Run: id, MachineSample: ms})
				s.broadcast(sseEvent{name: "sample", data: b})
			},
		}
		params := sc.Params(wapp, wapp.BasicSize(), "")
		var label string
		var m *core.Machine
		sc.OnMachine = func(l string, mm *core.Machine) { label, m = l, mm }
		s.broadcastRun(id)
		r, err := sc.Run(wapp, procs, params)
		// A failed run still leaves its machine: its artifact is the one
		// worth reading.
		art := experiments.BuildArtifact(label, wapp, params, m)
		var hp *hostprof.Report
		if p := m.HostProf(); p != nil {
			hp = p.Report()
		}
		s.mu.Lock()
		rs := s.runs[id]
		rs.artifact = art
		rs.hostprof = hp
		rs.sharing = art.Sharing
		rs.Size = params.Size
		if err != nil {
			rs.Status = "failed"
			rs.Error = err.Error()
		} else {
			rs.Status = "done"
			rs.ElapsedMs = r.Elapsed.Milliseconds()
		}
		s.mu.Unlock()
		s.broadcastRun(id)
	}
}

func (s *server) broadcastRun(id int) {
	s.mu.Lock()
	ev := s.runEvent(s.runs[id])
	s.mu.Unlock()
	s.broadcast(ev)
}

func (s *server) handleRuns(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]runState, len(s.runs))
	for i, rs := range s.runs {
		out[i] = *rs
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleEvents is the SSE stream: on connect it replays every run's current
// state, then forwards live run/sample events until the client leaves.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	// Commit the response headers before blocking on events: with no runs to
	// replay, nothing else would be written, and the client's GET would hang
	// waiting for a response that never starts.
	fmt.Fprint(w, ": connected\n\n")
	fl.Flush()

	ch := make(chan sseEvent, 256)
	s.mu.Lock()
	s.subs[ch] = struct{}{}
	replay := make([]sseEvent, 0, len(s.runs))
	for _, rs := range s.runs {
		replay = append(replay, s.runEvent(rs))
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.subs, ch)
		s.mu.Unlock()
	}()

	write := func(ev sseEvent) bool {
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, ev := range replay {
		if !write(ev) {
			return
		}
	}
	for {
		select {
		case ev := <-ch:
			if !write(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// runByQuery resolves the ?run=N parameter.
func (s *server) runByQuery(w http.ResponseWriter, r *http.Request) *runState {
	id, err := strconv.Atoi(r.URL.Query().Get("run"))
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || id < 0 || id >= len(s.runs) {
		http.Error(w, "unknown run", http.StatusNotFound)
		return nil
	}
	return s.runs[id]
}

func (s *server) handleCSV(w http.ResponseWriter, r *http.Request) {
	rs := s.runByQuery(w, r)
	if rs == nil {
		return
	}
	s.mu.Lock()
	samples := append([]metrics.MachineSample(nil), rs.samples...)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", fmt.Sprintf("run%d.csv", rs.ID)))
	metrics.WriteMachineCSV(w, samples)
}

func (s *server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	rs := s.runByQuery(w, r)
	if rs == nil {
		return
	}
	s.mu.Lock()
	art := rs.artifact
	s.mu.Unlock()
	if art.Schema == "" {
		http.Error(w, "run has no artifact yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	art.WriteJSON(w)
}

// handleHostprof serves a finished run's aggregate host-time report: where
// the engine spent real time (worker chains, commit, run-ahead, turnover)
// while producing the run's virtual-time results.
func (s *server) handleHostprof(w http.ResponseWriter, r *http.Request) {
	rs := s.runByQuery(w, r)
	if rs == nil {
		return
	}
	s.mu.Lock()
	hp := rs.hostprof
	s.mu.Unlock()
	if hp == nil {
		http.Error(w, "run has no host profile yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(hp)
}

// handleSharing serves a finished run's sharing-classifier report: the
// pattern census, the true/false coherence-miss split, the false-sharing
// suspects and the home-imbalance table rendered by the sharing panel.
func (s *server) handleSharing(w http.ResponseWriter, r *http.Request) {
	rs := s.runByQuery(w, r)
	if rs == nil {
		return
	}
	s.mu.Lock()
	sh := rs.sharing
	s.mu.Unlock()
	if sh == nil {
		http.Error(w, "run has no sharing report yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sh)
}

// handleMetrics serves Prometheus text exposition: per-run gauges from the
// latest machine sample. Virtual-time quantities are exported in
// milliseconds of simulated time.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	type snap struct {
		rs     runState
		latest *metrics.MachineSample
	}
	snaps := make([]snap, 0, len(s.runs))
	for _, rs := range s.runs {
		sn := snap{rs: *rs}
		if n := len(rs.samples); n > 0 {
			ms := rs.samples[n-1]
			sn.latest = &ms
		}
		snaps = append(snaps, sn)
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	gauge := func(name, help string, emit func(sn snap) (float64, bool)) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, sn := range snaps {
			v, ok := emit(sn)
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%s{run=\"%d\",app=%q,procs=\"%d\"} %g\n",
				name, sn.rs.ID, sn.rs.App, sn.rs.Procs, v)
		}
	}
	gauge("origin_run_status", "Run status: 0 running, 1 done, 2 failed.", func(sn snap) (float64, bool) {
		switch sn.rs.Status {
		case "done":
			return 1, true
		case "failed":
			return 2, true
		}
		return 0, true
	})
	gauge("origin_run_elapsed_ms", "Simulated elapsed time of a finished run.", func(sn snap) (float64, bool) {
		return sn.rs.ElapsedMs, sn.rs.Status == "done"
	})
	gauge("origin_virtual_time_ms", "Virtual time of the latest sample.", func(sn snap) (float64, bool) {
		if sn.latest == nil {
			return 0, false
		}
		return sn.latest.At.Milliseconds(), true
	})
	forLatest := func(f func(*metrics.MachineSample) float64) func(snap) (float64, bool) {
		return func(sn snap) (float64, bool) {
			if sn.latest == nil {
				return 0, false
			}
			return f(sn.latest), true
		}
	}
	gauge("origin_busy_ms", "Cumulative busy time summed over processors.",
		forLatest(func(ms *metrics.MachineSample) float64 { return ms.Busy.Milliseconds() }))
	gauge("origin_memory_stall_ms", "Cumulative memory-stall time summed over processors.",
		forLatest(func(ms *metrics.MachineSample) float64 { return ms.Memory.Milliseconds() }))
	gauge("origin_sync_ms", "Cumulative synchronization time summed over processors.",
		forLatest(func(ms *metrics.MachineSample) float64 { return ms.Sync.Milliseconds() }))
	gauge("origin_local_misses", "Cumulative local misses.",
		forLatest(func(ms *metrics.MachineSample) float64 { return float64(ms.LocalMisses) }))
	gauge("origin_remote_misses", "Cumulative remote (clean+dirty) misses.",
		forLatest(func(ms *metrics.MachineSample) float64 { return float64(ms.RemoteClean + ms.RemoteDirty) }))
	gauge("origin_dir_shared_blocks", "Directory entries in the Shared state.",
		forLatest(func(ms *metrics.MachineSample) float64 { return float64(ms.DirShared) }))
	gauge("origin_dir_exclusive_blocks", "Directory entries in the Exclusive state.",
		forLatest(func(ms *metrics.MachineSample) float64 { return float64(ms.DirExclusive) }))
	gauge("origin_hub_queued_ms", "Cumulative Hub queueing delay, all nodes.",
		forLatest(func(ms *metrics.MachineSample) float64 { return ms.HubQueuedTotal().Milliseconds() }))
	gauge("origin_mem_queued_ms", "Cumulative memory queueing delay, all nodes.",
		forLatest(func(ms *metrics.MachineSample) float64 { return ms.MemQueuedTotal().Milliseconds() }))
	gauge("origin_hottest_hub_node", "Node id with the most cumulative Hub queueing.",
		forLatest(func(ms *metrics.MachineSample) float64 { n, _ := ms.HottestHub(); return float64(n) }))
	forSharing := func(f func(*sharing.Report) float64) func(snap) (float64, bool) {
		return func(sn snap) (float64, bool) {
			if sn.rs.sharing == nil {
				return 0, false
			}
			return f(sn.rs.sharing), true
		}
	}
	gauge("origin_coherence_misses", "Coherence misses classified by the sharing observer.",
		forSharing(func(r *sharing.Report) float64 { return float64(r.Split.Coherence) }))
	gauge("origin_true_sharing_misses", "Coherence misses on words another processor wrote.",
		forSharing(func(r *sharing.Report) float64 { return float64(r.Split.TrueSharing) }))
	gauge("origin_false_sharing_misses", "Coherence misses on unmodified words (incl. unsettled).",
		forSharing(func(r *sharing.Report) float64 { return float64(r.Split.FalseTotal()) }))
	gauge("origin_home_imbalance", "Max-over-mean remote misses served per home node.",
		forSharing(func(r *sharing.Report) float64 { return r.Imbalance }))
	w.Write([]byte(b.String()))
}
