package experiments

import (
	"bytes"
	"testing"

	"origin2000/internal/core"
	"origin2000/internal/trace"
	"origin2000/internal/workload"
)

// traceRun executes app on a traced machine and returns the machine.
func traceRun(t *testing.T, s Scale, appName string, procs int, o trace.Options) *core.Machine {
	t.Helper()
	app := AppByName(appName)
	if app == nil {
		t.Fatalf("unknown app %q", appName)
	}
	cfg := s.Machine(procs)
	cfg.Trace = o
	m := core.New(cfg)
	if err := app.Run(m, s.Params(app, app.BasicSize(), "")); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOceanTraceAttribution is the end-to-end acceptance check: a traced
// 32-processor Ocean run must export a decodable Perfetto trace, the heat
// tables must agree exactly with the machine's own miss counters, and the
// top-ranked pages must concentrate the remote misses (that concentration
// is the whole point of the attribution layer — it names the pages to fix).
func TestOceanTraceAttribution(t *testing.T) {
	s := Scale{Div: 64, CacheDiv: 64}
	m := traceRun(t, s, "Ocean", 32, trace.Options{Enabled: true, Lossless: true})
	tr := m.Tracer()

	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.DecodePerfetto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exported trace does not decode: %v", err)
	}
	orig := tr.AllEvents()
	if len(decoded) != len(orig) {
		t.Fatalf("decoded %d streams, want %d", len(decoded), len(orig))
	}
	total := 0
	for p := range orig {
		if len(decoded[p]) != len(orig[p]) {
			t.Fatalf("proc %d: decoded %d events, want %d", p, len(decoded[p]), len(orig[p]))
		}
		total += len(orig[p])
	}
	if total == 0 {
		t.Fatal("trace is empty")
	}

	// The heat tables are built from the same event sites as the machine
	// counters; their totals must agree exactly.
	c := m.Result().Counters
	var local, clean, dirty, upgrades, invSent, invRecv int64
	for _, h := range tr.TopPages(0) {
		local += h.LocalMisses
		clean += h.RemoteClean
		dirty += h.RemoteDirty
		upgrades += h.Upgrades
		invSent += h.InvalsSent
		invRecv += h.InvalsRecv
	}
	if local != c.LocalMisses || clean != c.RemoteClean || dirty != c.RemoteDirty {
		t.Errorf("heat miss totals (%d/%d/%d) disagree with counters (%d/%d/%d)",
			local, clean, dirty, c.LocalMisses, c.RemoteClean, c.RemoteDirty)
	}
	if upgrades != c.Upgrades {
		t.Errorf("heat upgrades %d != counter %d", upgrades, c.Upgrades)
	}
	if invSent != c.Invalidations || invRecv != c.Invalidations {
		t.Errorf("heat invalidations sent %d / received %d != counter %d",
			invSent, invRecv, c.Invalidations)
	}

	const topN = 20
	if share := tr.RemoteMissShare(topN); share < 0.5 {
		t.Errorf("top-%d pages hold only %.1f%% of remote misses, want >= 50%%", topN, 100*share)
	}

	// Barrier waits must be attributed.
	syncs := tr.TopSync(1)
	if len(syncs) == 0 || syncs[0].TotalWait <= 0 {
		t.Errorf("no synchronization wait attributed: %+v", syncs)
	}
}

// TestArrayStatsAccountAllStall: the per-allocation table, folded from
// the tracer's page heat, must account for every miss, every upgrade's
// stall and every invalidation the processors counted. Ocean/16 upgrades
// often, so a table that skipped upgrades would miss part of its memory
// stall and invalidations.
func TestArrayStatsAccountAllStall(t *testing.T) {
	m := traceRun(t, Scale{Div: 64, CacheDiv: 64}, "Ocean", 16, trace.Options{Enabled: true})
	c := m.Result().Counters
	if c.Upgrades == 0 || c.Invalidations == 0 {
		t.Fatalf("%d upgrades, %d invalidations: the check is vacuous", c.Upgrades, c.Invalidations)
	}
	var sum core.ArrayStats
	for _, a := range m.ArrayStats() {
		sum.LocalMisses += a.LocalMisses
		sum.RemoteClean += a.RemoteClean
		sum.RemoteDirty += a.RemoteDirty
		sum.Invals += a.Invals
		sum.Stall += a.Stall
	}
	if sum.LocalMisses != c.LocalMisses || sum.RemoteClean != c.RemoteClean || sum.RemoteDirty != c.RemoteDirty {
		t.Errorf("arrays hold %d/%d/%d local/remote-clean/remote-dirty misses, processors counted %d/%d/%d",
			sum.LocalMisses, sum.RemoteClean, sum.RemoteDirty, c.LocalMisses, c.RemoteClean, c.RemoteDirty)
	}
	if want := c.LocalStall + c.RemoteStall; sum.Stall != want {
		t.Errorf("arrays' stall sums to %v, processors' local plus remote stall is %v", sum.Stall, want)
	}
	if sum.Invals != c.Invalidations {
		t.Errorf("arrays' invalidations sum to %d, processors sent %d", sum.Invals, c.Invalidations)
	}
}

// TestOnMachineSeesFailedRuns pins the flight-recorder contract RunConfig
// gives CI: OnMachine hands over the machine, labeled, even when the run
// then fails, so the failing execution's trace can be exported.
func TestOnMachineSeesFailedRuns(t *testing.T) {
	var label string
	var seen *core.Machine
	s := Scale{Div: 64, CacheDiv: 64,
		Trace: trace.Options{Enabled: true},
	}
	s.OnMachine = func(l string, m *core.Machine) { label, seen = l, m }
	app := AppByName("FFT")
	params := workload.Params{Size: -1, Seed: 42} // invalid size: the run must fail
	if _, err := s.RunConfig(app, s.Machine(4), params); err == nil {
		t.Skip("invalid size did not fail; hook-on-failure untestable this way")
	}
	if seen == nil {
		t.Fatal("OnMachine not called for a failed run")
	}
	if seen.Tracer() == nil {
		t.Error("machine has no tracer despite Trace.Enabled")
	}
	if label != "FFT-p4-s-1" {
		t.Errorf("label %q, want FFT-p4-s-1", label)
	}
}
