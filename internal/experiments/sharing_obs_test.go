package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"origin2000/internal/core"
	"origin2000/internal/trace"
	"origin2000/internal/workload"
)

// TestSharingOffByDefault pins the zero-cost-off contract at the surface:
// a scale without Sharing set yields machines with no observer, a nil
// SharingReport, and artifacts without a sharing section — so every
// existing artifact consumer and saved-JSON fixture is untouched.
func TestSharingOffByDefault(t *testing.T) {
	app := AppByName("FFT")
	s := Scale{Div: 64, CacheDiv: 64}
	var m *core.Machine
	s.OnMachine = func(_ string, mm *core.Machine) { m = mm }
	params := s.Params(app, app.BasicSize(), "")
	if _, err := s.RunConfig(app, s.Machine(8), params); err != nil {
		t.Fatal(err)
	}
	if m.SharingObserver() != nil {
		t.Error("sharing observer constructed without Sharing.Enabled")
	}
	if m.SharingReport(0) != nil {
		t.Error("SharingReport non-nil with the classifier off")
	}
	if a := BuildArtifact("off", app, params, m); a.Sharing != nil {
		t.Error("artifact carries a sharing section with the classifier off")
	}
}

// saveSharingReport is the golden-test failure hook: when an application's
// built-in output verification fails, the scenario is deterministically
// re-run with the sharing classifier on, and its report (the one
// `origin run -explain` prints) is dropped as JSON into the CI artifact
// directory (ORIGIN_TRACE_ARTIFACTS) — a
// wrong-output failure ships its sharing diagnosis alongside the event
// trace, so the first triage question ("what was the memory system doing?")
// is answered before anyone reproduces locally.
func saveSharingReport(t *testing.T, s Scale, app workload.App, procs int, variant string) {
	dir := trace.ArtifactDir()
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("sharing artifact dir: %v", err)
		return
	}
	var m *core.Machine
	s.OnMachine = func(_ string, mm *core.Machine) { m = mm }
	cfg := s.Machine(procs)
	cfg.Sharing.Enabled = true
	// The rerun fails the same verification; the classifier state at the
	// point of failure is exactly what we want to report.
	_, _ = s.RunConfig(app, cfg, s.Params(app, app.BasicSize(), variant))
	if m == nil {
		return
	}
	r := m.SharingReport(16)
	if r == nil {
		return
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		t.Logf("sharing report marshal: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("sharing-%s-p%d.json", app.Name(), procs))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Logf("sharing artifact write: %v", err)
		return
	}
	t.Logf("saved %s", path)
}
