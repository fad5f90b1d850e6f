package experiments

import (
	"testing"

	"origin2000/internal/core"
	"origin2000/internal/metrics"
	"origin2000/internal/sim"
)

// TestPerNodeQueueingSums pins the perf.Result per-node queueing slices
// (satellite of the metrics PR): on a 32-processor Ocean run the per-node
// slices must be the primary data, summing exactly to the machine-global
// scalar totals.
func TestPerNodeQueueingSums(t *testing.T) {
	app := AppByName("Ocean")
	s := Scale{Div: 64, CacheDiv: 64}
	r, err := s.Run(app, 32, s.Params(app, app.BasicSize(), ""))
	if err != nil {
		t.Fatal(err)
	}
	res := r.Result
	sum := func(ts []sim.Time) sim.Time {
		var t sim.Time
		for _, v := range ts {
			t += v
		}
		return t
	}
	if got := sum(res.HubQueuedPerNode); got != res.HubQueued {
		t.Errorf("HubQueuedPerNode sums to %d, scalar total %d", got, res.HubQueued)
	}
	if got := sum(res.MemQueuedPerNode); got != res.MemQueued {
		t.Errorf("MemQueuedPerNode sums to %d, scalar total %d", got, res.MemQueued)
	}
	if got := sum(res.HubBusyPerNode); got != res.HubBusy {
		t.Errorf("HubBusyPerNode sums to %d, scalar total %d", got, res.HubBusy)
	}
	if got := sum(res.RouterQueuedPerRouter); got != res.RouterQueued {
		t.Errorf("RouterQueuedPerRouter sums to %d, scalar total %d", got, res.RouterQueued)
	}
	if got := sum(res.MetaQueuedPerMeta); got != res.MetaQueued {
		t.Errorf("MetaQueuedPerMeta sums to %d, scalar total %d", got, res.MetaQueued)
	}
	if len(res.HubQueuedPerNode) != 16 { // 32 procs / 2 per node
		t.Errorf("expected 16 per-node entries, got %d", len(res.HubQueuedPerNode))
	}
	if res.HubQueued == 0 {
		t.Error("Ocean at 32 procs produced no Hub queueing; the test is vacuous")
	}
}

// TestBuildArtifact exercises the artifact builder end to end: series,
// epochs, pages and syncs populated, JSON round-trip intact.
func TestBuildArtifact(t *testing.T) {
	app := AppByName("FFT")
	s := Scale{Div: 64, CacheDiv: 64}
	s.Metrics = metrics.Options{Enabled: true, Interval: 10 * sim.Microsecond}
	s.Trace.Enabled = true
	var label string
	var m *core.Machine
	s.OnMachine = func(l string, mm *core.Machine) { label, m = l, mm }
	params := s.Params(app, app.BasicSize(), "")
	if _, err := s.Run(app, 8, params); err != nil {
		t.Fatal(err)
	}
	a := BuildArtifact(label, app, params, m)
	if a.Schema != metrics.ArtifactSchema {
		t.Fatalf("artifact not built (schema %q)", a.Schema)
	}
	if len(a.PerProc) != 8 || a.Elapsed <= 0 {
		t.Errorf("artifact missing per-proc state: procs=%d elapsed=%d", len(a.PerProc), a.Elapsed)
	}
	if len(a.Machine) == 0 || len(a.Epochs) == 0 {
		t.Errorf("artifact missing series: machine=%d epochs=%d", len(a.Machine), len(a.Epochs))
	}
	if len(a.Pages) == 0 || len(a.Syncs) == 0 {
		t.Errorf("artifact missing trace tables: pages=%d syncs=%d", len(a.Pages), len(a.Syncs))
	}
	if cp := a.CriticalProc(); cp < 0 || cp >= 8 {
		t.Errorf("critical proc out of range: %d", cp)
	}

	path := t.TempDir() + "/a.json"
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := metrics.ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Elapsed != a.Elapsed || len(back.Machine) != len(a.Machine) || len(back.PerProc) != len(a.PerProc) {
		t.Error("artifact JSON round-trip lost data")
	}
}
