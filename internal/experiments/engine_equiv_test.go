package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"origin2000/internal/core"
	"origin2000/internal/mempolicy"
	"origin2000/internal/metrics"
	"origin2000/internal/sim"
	"origin2000/internal/trace"
)

// saveEngineArtifacts drops both engines' exported traces into the CI
// artifact directory (ORIGIN_TRACE_ARTIFACTS) when a bit-identity check
// fails, so the diverging shard merge can be diffed offline.
func saveEngineArtifacts(t *testing.T, app string, serial, parallel []byte) {
	dir := trace.ArtifactDir()
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	for _, f := range []struct {
		engine string
		data   []byte
	}{{"serial", serial}, {"parallel", parallel}} {
		path := filepath.Join(dir, fmt.Sprintf("engine-equiv-%s-%s.trace", app, f.engine))
		if err := os.WriteFile(path, f.data, 0o644); err != nil {
			t.Logf("artifact write: %v", err)
			continue
		}
		t.Logf("saved %s", path)
	}
}

// engineRun executes app at 32 processors under the given engine and
// returns the full measurement plus the machine (for trace and sampler
// inspection). The scale matches the determinism tests (Div 64).
func engineRun(t *testing.T, appName, engine string, workers int,
	mutate func(*core.Config)) (RunResult, *core.Machine) {
	t.Helper()
	app := AppByName(appName)
	if app == nil {
		t.Fatalf("unknown app %q", appName)
	}
	s := Scale{Div: 64, CacheDiv: 64, Engine: engine, Workers: workers}
	var m *core.Machine
	s.TraceSink = func(_ string, mm *core.Machine) { m = mm }
	cfg := s.Machine(32)
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := s.RunConfig(app, cfg, s.Params(app, app.BasicSize(), ""))
	if err != nil {
		t.Fatal(err)
	}
	return r, m
}

// TestEngineEquivalenceAllApps is the tentpole's contract: for every
// application in the study, a 32-processor run under the parallel engine
// at 1, 2, and 8 host workers must be bit-identical to the serial
// reference engine — the same elapsed time, the same perf.Result down to
// every per-processor counter, and the same exported trace, byte for
// byte. The engines share one windowed schedule that is a function of
// virtual time only, so any divergence is a sharding or merge bug, never
// an accepted approximation. The worker sweep covers the degenerate
// single-worker case, the first truly concurrent one, and an
// oversubscribed one (run-ahead entry, window turnover, and work stealing
// all depend on chain interleaving, which shifts with the worker count).
func TestEngineEquivalenceAllApps(t *testing.T) {
	for _, app := range Apps() {
		name := app.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			traced := func(cfg *core.Config) {
				cfg.Trace = trace.Options{Enabled: true, Lossless: true}
			}
			export := func(m *core.Machine) []byte {
				var b bytes.Buffer
				if err := m.Tracer().WriteBinary(&b); err != nil {
					t.Fatal(err)
				}
				return b.Bytes()
			}
			serial, sm := engineRun(t, name, "serial", 0, traced)
			sb := export(sm)
			if len(sb) == 0 {
				t.Fatal("serial run exported an empty trace")
			}
			for _, workers := range []int{1, 2, 8} {
				par, pm := engineRun(t, name, "parallel", workers, traced)
				if !reflect.DeepEqual(serial, par) {
					t.Errorf("workers=%d results differ between engines:\nserial   %+v\nparallel %+v",
						workers, serial, par)
				}
				pb := export(pm)
				if !bytes.Equal(sb, pb) {
					t.Errorf("workers=%d binary trace differs between engines (%d vs %d bytes)",
						workers, len(sb), len(pb))
					saveEngineArtifacts(t, name, sb, pb)
				}
				// The merged per-shard heat and histogram buckets must fold
				// to the serial totals too (WriteBinary covers the rings).
				if !reflect.DeepEqual(sm.Tracer().TopPages(50), pm.Tracer().TopPages(50)) {
					t.Errorf("workers=%d page heat ranking differs between engines", workers)
				}
				if !reflect.DeepEqual(sm.Tracer().LatencyReport(), pm.Tracer().LatencyReport()) {
					t.Errorf("workers=%d latency histograms differ between engines", workers)
				}
				if !reflect.DeepEqual(sm.Tracer().QueueReport(), pm.Tracer().QueueReport()) {
					t.Errorf("workers=%d queue histograms differ between engines", workers)
				}
			}
		})
	}
}

// TestEngineEquivalenceWideWindow extends the contract to the widest window
// the quantum ablation runs, 4 µs, four times the default: processors run
// further ahead of each other, so each window holds more events from more
// shards for the merge to order. Every window must be exactly that wide,
// and the run must still be bit-identical across engines and worker
// counts. Covers a lock-heavy app (Barnes, whose critical regions span
// window edges), a barrier-phased one (FFT), and a task-stealing one
// (Raytrace).
func TestEngineEquivalenceWideWindow(t *testing.T) {
	const quantum = 4 * sim.Microsecond
	for _, name := range []string{"Barnes", "FFT", "Raytrace"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			wide := func(cfg *core.Config) { cfg.Quantum = quantum }
			checkWidth := func(engine string, workers int, m *core.Machine) sim.SchedShape {
				s := m.SchedShape()
				if s.Windows == 0 || s.WindowWidthSum != sim.Time(s.Windows)*quantum {
					t.Errorf("%s workers=%d: %d windows of total width %v, want every window %v wide",
						engine, workers, s.Windows, s.WindowWidthSum, quantum)
				}
				return s
			}
			serial, sm := engineRun(t, name, "serial", 0, wide)
			shape := checkWidth("serial", 0, sm)
			for _, workers := range []int{1, 2, 8} {
				par, pm := engineRun(t, name, "parallel", workers, wide)
				if !reflect.DeepEqual(serial, par) {
					t.Errorf("workers=%d results differ between engines:\nserial   %+v\nparallel %+v",
						workers, serial, par)
				}
				if s := checkWidth("parallel", workers, pm); s != shape {
					t.Errorf("workers=%d schedule shape %+v, serial engine %+v", workers, s, shape)
				}
			}
		})
	}
}

// TestEngineEquivalenceMigration covers the hardest cross-shard path: with
// round-robin placement and a low migration threshold, remote misses mutate
// the shared page table and move directory records between shards mid-run.
func TestEngineEquivalenceMigration(t *testing.T) {
	migrate := func(cfg *core.Config) {
		cfg.Placement = mempolicy.RoundRobin
		cfg.IgnorePlacement = true
		cfg.MigrationThreshold = 8
	}
	serial, _ := engineRun(t, "Water-Nsquared", "serial", 0, migrate)
	par, _ := engineRun(t, "Water-Nsquared", "parallel", 4, migrate)
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("migrating results differ between engines:\nserial   %+v\nparallel %+v",
			serial, par)
	}
	if serial.Result.Migrations == 0 {
		t.Error("migration config produced no page migrations; the cross-shard remap path went unexercised")
	}
}

// TestEngineEquivalenceObservers pins the observer story: the checker, the
// metrics sampler and the sharing classifier read cross-shard state at
// event time, so enabling any of them forces the parallel engine down to
// one worker — and with that, a checked, sampled and classified run under
// -engine=parallel must produce exactly the serial run's verdicts, sample
// series and sharing report.
func TestEngineEquivalenceObservers(t *testing.T) {
	for _, name := range []string{"FFT", "Raytrace"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			observed := func(cfg *core.Config) {
				cfg.Check = true
				cfg.Metrics = metrics.Options{Enabled: true}
				cfg.Sharing.Enabled = true
			}
			serial, sm := engineRun(t, name, "serial", 0, observed)
			par, pm := engineRun(t, name, "parallel", 4, observed)
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("observed results differ between engines:\nserial   %+v\nparallel %+v",
					serial, par)
			}
			ss, ps := sm.Sampler(), pm.Sampler()
			if ss.Samples() == 0 {
				t.Fatal("sampler recorded no samples")
			}
			if !reflect.DeepEqual(ss.MachineSeries(), ps.MachineSeries()) {
				t.Error("machine sample series differ between engines")
			}
			if !reflect.DeepEqual(ss.AllProcSeries(), ps.AllProcSeries()) {
				t.Error("per-processor sample series differ between engines")
			}
			if !reflect.DeepEqual(ss.Epochs(), ps.Epochs()) {
				t.Error("epoch marks differ between engines")
			}
			sr, pr := sm.SharingReport(0), pm.SharingReport(0)
			if sr == nil || pr == nil {
				t.Fatal("sharing classifier enabled but a report is nil")
			}
			if !reflect.DeepEqual(sr, pr) {
				t.Error("sharing reports differ between engines")
			}
		})
	}
}
