package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"origin2000/internal/check"
	"origin2000/internal/core"
	"origin2000/internal/experiments"
)

// TestCaptureWritesFailingTrace covers the checked run's failure path: a
// dropped invalidation (the recipe of TestBisectDroppedInvalidation) must
// surface as the checker's violation and leave the failing run's Perfetto
// trace in the artifacts directory, while a clean run leaves nothing.
func TestCaptureWritesFailingTrace(t *testing.T) {
	app := experiments.AppByName("Ocean")
	s := experiments.Scale{Div: 64, CacheDiv: 64, Check: true}
	params := s.Params(app, app.BasicSize(), "")
	run := func(s experiments.Scale) error {
		_, err := s.Run(app, 32, params)
		return err
	}

	clean := t.TempDir()
	if err := capture(s, clean, run); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if files, err := os.ReadDir(clean); err != nil || len(files) != 0 {
		t.Errorf("clean run left %d artifacts (%v)", len(files), err)
	}

	const dropAt = 8000 // drop the Nth invalidation the directory sends
	s.OnMachine = func(_ string, m *core.Machine) {
		n := 0
		m.FaultDropInvalidation(func(block uint64, proc int) bool {
			n++
			return n == dropAt
		})
	}
	dir := t.TempDir()
	err := capture(s, dir, run)
	var v *check.Violation
	if !errors.As(err, &v) {
		t.Fatalf("faulted run returned %v, want the checker's violation", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("Ocean-p32-s%d.perfetto.json", params.Size))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("failing run's trace: %v", err)
	}
	if !json.Valid(b) {
		t.Errorf("%s is not valid JSON", path)
	}
}
