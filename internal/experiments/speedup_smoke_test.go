package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"origin2000/internal/core"
	"origin2000/internal/trace"
)

// TestEngineSpeedupSmoke is the CI wall-clock guard for the parallel
// engine: on a multi-core host, a fig2-style subset (three apps at 32
// simulated processors) must run at least as fast under the parallel
// engine with 4 workers as under the serial engine — while staying
// bit-identical. It measures host wall-clock, so it is opt-in: set
// ORIGIN_SPEEDUP_SMOKE=1 (the CI engine-speedup job does). Single-core
// hosts skip automatically: with nothing to overlap, the parallel engine
// can only add overhead, and the claim would be unprovable there.
func TestEngineSpeedupSmoke(t *testing.T) {
	if os.Getenv("ORIGIN_SPEEDUP_SMOKE") == "" {
		t.Skip("wall-clock smoke: set ORIGIN_SPEEDUP_SMOKE=1 to enable")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("wall-clock smoke: need >=4 host cores, have %d", runtime.NumCPU())
	}
	apps := []string{"Ocean", "Radix", "Water-Nsquared"}
	run := func(engine string, workers int) (time.Duration, []RunResult) {
		var results []RunResult
		start := time.Now()
		for _, name := range apps {
			app := AppByName(name)
			if app == nil {
				t.Fatalf("unknown app %q", name)
			}
			s := Scale{Div: 8, CacheDiv: 8, Engine: engine, Workers: workers}
			r, err := s.RunConfig(app, s.Machine(32), s.Params(app, app.BasicSize(), ""))
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
		return time.Since(start), results
	}
	// dumpHostProf reruns the parallel sweep with the host-time profiler
	// attached (schedule-neutral, so it reproduces the measured schedule
	// exactly) and writes each run's Perfetto timeline and aggregate report
	// to the CI artifact directory — the first thing to look at when the
	// speedup bar misses: it says whether the host time went to worker
	// chains, the serialized commit phase, or window turnover.
	dumpHostProf := func(reason string) {
		dir := trace.ArtifactDir()
		if dir == "" {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("hostprof artifacts: %v", err)
			return
		}
		for _, name := range apps {
			app := AppByName(name)
			s := Scale{Div: 8, CacheDiv: 8, Engine: "parallel", Workers: 4, HostProf: true}
			var m *core.Machine
			s.OnMachine = func(_ string, mm *core.Machine) { m = mm }
			if _, err := s.RunConfig(app, s.Machine(32), s.Params(app, app.BasicSize(), "")); err != nil {
				t.Logf("hostprof rerun %s: %v", name, err)
				continue
			}
			hp := m.HostProf()
			path := filepath.Join(dir, fmt.Sprintf("hostprof-%s.perfetto.json", name))
			f, err := os.Create(path)
			if err == nil {
				err = hp.WritePerfetto(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				t.Logf("hostprof timeline %s: %v", name, err)
				continue
			}
			rep, err := json.MarshalIndent(hp.Report(), "", " ")
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("hostprof-%s.report.json", name)), rep, 0o644)
			}
			if err != nil {
				t.Logf("hostprof report %s: %v", name, err)
			}
		}
		t.Logf("wrote hostprof artifacts (%s) to %s", reason, dir)
	}

	// Warm-up pass so page-cache and JIT-ish first-run effects do not
	// count against either engine.
	_, _ = run("serial", 0)
	serialWall, serialRes := run("serial", 0)
	parWall, parRes := run("parallel", 4)
	if !reflect.DeepEqual(serialRes, parRes) {
		dumpHostProf("divergence")
		t.Fatal("parallel engine results differ from serial; speedup comparison is meaningless")
	}
	t.Logf("serial %v, parallel(4 workers) %v (%.2fx)", serialWall, parWall,
		float64(serialWall)/float64(parWall))
	// 5% slack: the bound is "pays for itself", not a specific speedup.
	if float64(parWall) > 1.05*float64(serialWall) {
		dumpHostProf("speedup bar missed")
		t.Errorf("parallel engine slower than serial: %v vs %v", parWall, serialWall)
	}
}
