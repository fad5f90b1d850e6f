package metrics

import (
	"encoding/json"
	"strings"
	"testing"

	"origin2000/internal/sim"
)

func TestSamplerGridOneSamplePerCell(t *testing.T) {
	s := New(2, Options{Enabled: true, Interval: 100})
	if s.Due(0, 99) {
		t.Error("due before the first boundary")
	}
	if !s.Due(0, 100) {
		t.Error("not due at the boundary")
	}
	s.RecordProc(0, ProcSample{At: 130})
	if s.ProcDue(0, 199) {
		t.Error("still due inside the same cell after recording")
	}
	if !s.ProcDue(0, 200) {
		t.Error("not due in the next cell")
	}
	// A clock jump across several cells yields one sample, not fillers.
	s.RecordProc(0, ProcSample{At: 750})
	if got := len(s.ProcSeries(0)); got != 2 {
		t.Fatalf("series length = %d, want 2 (sparse sampling)", got)
	}
	if e := s.ProcSeries(0)[1].Epoch; e != 7 {
		t.Errorf("epoch = %d, want 7", e)
	}
	if s.ProcDue(0, 799) {
		t.Error("due again inside cell 7")
	}
	// Processor 1's grid is independent.
	if !s.ProcDue(1, 100) {
		t.Error("processor 1's grid moved with processor 0's")
	}
}

func TestSamplerMachineGridAndFinal(t *testing.T) {
	var streamed []MachineSample
	s := New(1, Options{
		Enabled:  true,
		Interval: 100,
		OnMachineSample: func(ms MachineSample) {
			streamed = append(streamed, ms)
		},
	})
	if !s.MachineDue(100) {
		t.Fatal("machine sample not due at the boundary")
	}
	s.RecordMachine(MachineSample{At: 120})
	if s.MachineDue(199) {
		t.Error("machine due twice in one cell")
	}
	// Final sample is appended regardless of grid, but deduped by At.
	s.RecordFinal(MachineSample{At: 150})
	s.RecordFinal(MachineSample{At: 150})
	if got := len(s.MachineSeries()); got != 2 {
		t.Fatalf("machine series length = %d, want 2 (final deduped)", got)
	}
	if len(streamed) != 2 {
		t.Errorf("OnMachineSample saw %d samples, want 2", len(streamed))
	}
}

func TestMachineSampleHelpers(t *testing.T) {
	ms := MachineSample{
		HubQueued:    []sim.Time{3, 7, 7},
		MemQueued:    []sim.Time{1, 2, 3},
		RouterQueued: []sim.Time{4},
	}
	if got := ms.HubQueuedTotal(); got != 17 {
		t.Errorf("HubQueuedTotal = %d", got)
	}
	if got := ms.MemQueuedTotal(); got != 6 {
		t.Errorf("MemQueuedTotal = %d", got)
	}
	if got := ms.RouterQueuedTotal(); got != 4 {
		t.Errorf("RouterQueuedTotal = %d", got)
	}
	if node, q := ms.HottestHub(); node != 1 || q != 7 {
		t.Errorf("HottestHub = (%d, %d), want (1, 7): lowest id wins ties", node, q)
	}
}

func TestWriteMachineCSV(t *testing.T) {
	var sb strings.Builder
	samples := []MachineSample{
		{At: 100, Epoch: 1, Busy: 50, HubQueued: []sim.Time{0, 9}},
		{At: 200, Epoch: 2, Busy: 120, HubQueued: []sim.Time{3, 9}},
	}
	if err := WriteMachineCSV(&sb, samples); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2", len(lines))
	}
	cols := strings.Split(lines[0], ",")
	for i, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != len(cols) {
			t.Errorf("row %d has %d cells, header has %d", i, got, len(cols))
		}
	}
	if !strings.HasPrefix(lines[1], "100,1,50,") {
		t.Errorf("row 1 = %q", lines[1])
	}
	if !strings.Contains(lines[1], ",1,9") { // hottest hub, queued
		t.Errorf("row 1 missing hottest-hub columns: %q", lines[1])
	}
}

// artifactWith builds a two-processor artifact with the given critical-path
// stats for diff tests.
func artifactWith(label string, elapsed sim.Time, crit ProcStat) Artifact {
	return Artifact{
		Schema:  ArtifactSchema,
		Label:   label,
		Elapsed: elapsed,
		PerProc: []ProcStat{crit, {Busy: 1}},
	}
}

func TestDiffComponentTotalExact(t *testing.T) {
	a := artifactWith("a", 1000, ProcStat{Busy: 400, Memory: 350, Sync: 250})
	b := artifactWith("b", 1300, ProcStat{Busy: 400, Memory: 600, Sync: 300})
	r := Diff(a, b)
	if r.Delta != 300 {
		t.Fatalf("Delta = %d", r.Delta)
	}
	if got := r.ComponentTotal(); got != r.Delta {
		t.Errorf("ComponentTotal = %d, want Delta = %d", got, r.Delta)
	}
	// No residual needed: both critical procs fully account their elapsed.
	if len(r.Components) != 3 {
		t.Errorf("expected 3 components, got %d", len(r.Components))
	}
}

func TestDiffResidualKeepsSumExact(t *testing.T) {
	// Critical proc accounts only part of elapsed in run B — the residual
	// component must absorb the difference so the sum stays exact.
	a := artifactWith("a", 1000, ProcStat{Busy: 400, Memory: 350, Sync: 250})
	b := artifactWith("b", 1500, ProcStat{Busy: 420, Memory: 380, Sync: 260})
	r := Diff(a, b)
	if got := r.ComponentTotal(); got != r.Delta {
		t.Errorf("ComponentTotal = %d, want Delta = %d", got, r.Delta)
	}
	if len(r.Components) != 4 || r.Components[3].Name != "residual" {
		t.Errorf("expected residual component, got %+v", r.Components)
	}
}

func TestDiffEpochAlignment(t *testing.T) {
	a := artifactWith("a", 100, ProcStat{Busy: 100})
	b := artifactWith("b", 100, ProcStat{Busy: 100})
	a.Epochs = []sim.Time{10, 30}
	b.Epochs = []sim.Time{15, 55}
	r := Diff(a, b)
	if len(r.Epochs) != 2 || r.EpochNote != "" {
		t.Fatalf("epochs = %+v, note = %q", r.Epochs, r.EpochNote)
	}
	// Epoch 0: 10 vs 15 (+5); epoch 1: 20 vs 40 (+20).
	if r.Epochs[1].Delta != 20 {
		t.Errorf("epoch 1 delta = %d, want 20", r.Epochs[1].Delta)
	}

	b.Epochs = []sim.Time{15}
	r = Diff(a, b)
	if len(r.Epochs) != 0 || r.EpochNote == "" {
		t.Error("mismatched epoch counts must skip alignment with a note")
	}
}

func TestDiffPageAndSyncJoin(t *testing.T) {
	a := artifactWith("a", 100, ProcStat{Busy: 100})
	b := artifactWith("b", 100, ProcStat{Busy: 100})
	a.Pages = []PageHeat{{Page: 1, Stall: 50, RemoteMisses: 5}, {Page: 2, Stall: 10}}
	b.Pages = []PageHeat{{Page: 1, Stall: 20, RemoteMisses: 2}, {Page: 3, Stall: 100}}
	a.Syncs = []SyncSite{{Label: "barrier#0", TotalWait: 40}}
	b.Syncs = []SyncSite{{Label: "barrier#0", TotalWait: 90}, {Label: "lock#0", TotalWait: 5}}
	r := Diff(a, b)
	if len(r.Pages) != 3 {
		t.Fatalf("pages = %+v", r.Pages)
	}
	// Sorted by |delta| desc: page 3 (+100), page 1 (-30), page 2 (-10).
	if r.Pages[0].Page != 3 || r.Pages[1].Page != 1 {
		t.Errorf("page order = %+v", r.Pages)
	}
	if len(r.Syncs) != 2 || r.Syncs[0].Label != "barrier#0" || r.Syncs[0].Delta != 50 {
		t.Errorf("syncs = %+v", r.Syncs)
	}
}

func TestCriticalProcLowestIdTie(t *testing.T) {
	a := Artifact{PerProc: []ProcStat{{Busy: 5}, {Busy: 3, Sync: 2}, {Busy: 1}}}
	if got := a.CriticalProc(); got != 0 {
		t.Errorf("CriticalProc = %d, want 0 (lowest id wins ties)", got)
	}
	empty := Artifact{}
	if got := empty.CriticalProc(); got != -1 {
		t.Errorf("CriticalProc on empty artifact = %d, want -1", got)
	}
}

func TestReportRows(t *testing.T) {
	a := artifactWith("first-touch", 1000, ProcStat{Busy: 400, Memory: 350, Sync: 250})
	b := artifactWith("round-robin", 1300, ProcStat{Busy: 400, Memory: 600, Sync: 300})
	r := Diff(a, b)
	rows := r.ComponentRows()
	if rows[len(rows)-1][0] != "TOTAL" {
		t.Errorf("last component row = %v, want TOTAL", rows[len(rows)-1])
	}
	for _, render := range [][][]string{r.SubMemoryRows(), r.SubSyncRows(), r.EpochRows(5), r.PageRows(5), r.SyncRows(5)} {
		if len(render) < 1 || len(render[0]) < 2 {
			t.Errorf("degenerate table: %+v", render)
		}
	}
}

// TestSnapFrozenAtCapture: a snap keeps the state it captured while the
// sampler records on, so an in-memory checkpoint's metrics section does
// not drift to the end of the run.
func TestSnapFrozenAtCapture(t *testing.T) {
	s := New(2, Options{Enabled: true, Interval: 100})
	s.RecordProc(0, ProcSample{At: 120, Epoch: 1})
	s.RecordMachine(MachineSample{At: 130, Epoch: 1})
	s.EpochMark(130)
	snap := s.Snap()
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		s.RecordProc(p, ProcSample{At: 340, Epoch: 3, Busy: 7})
	}
	s.RecordMachine(MachineSample{At: 350, Epoch: 3})
	s.RecordFinal(MachineSample{At: 400, Epoch: 4})
	s.EpochMark(400)
	got, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("snap changed after capture:\nat capture %s\nnow        %s", want, got)
	}
}
