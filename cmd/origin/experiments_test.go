package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"origin2000/internal/check"
	"origin2000/internal/core"
	"origin2000/internal/experiments"
)

// TestCaptureWritesFailingTrace covers the checked run's failure path: a
// dropped invalidation, the 8,000th of about 18,000 that Ocean sends at
// this scale, must surface as the checker's violation naming the lost
// invalidation, and leave the failing run's Perfetto trace in the
// artifacts directory, while a clean run leaves nothing. The online
// checker is the simulator's one coherence audit; this is its fault.
func TestCaptureWritesFailingTrace(t *testing.T) {
	app := experiments.AppByName("Ocean")
	s := experiments.Scale{Div: 64, CacheDiv: 64, Check: true}
	params := s.Params(app, app.BasicSize(), "")
	run := func(s experiments.Scale) error {
		_, err := s.Run(app, 32, params)
		return err
	}

	clean := t.TempDir()
	if err := capture(s, clean, io.Discard, run); err != nil {
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
	err := capture(s, dir, io.Discard, run)
	var v *check.Violation
	if !errors.As(err, &v) {
		t.Fatalf("faulted run returned %v, want the checker's violation", err)
	}
	if !strings.Contains(v.Msg, "invalidation") {
		t.Errorf("violation does not name the dropped invalidation: %v", v)
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

// TestExperimentsChecksFlagsFirst: an experiment name Run does not accept,
// and a processor count no directory can hold, exit 2 naming the flag
// before the header or any table is printed.
func TestExperimentsChecksFlagsFirst(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-run", "bogus"}, []string{"-run", `"bogus"`, "fig6", "sec62", "ablation"}},
		{[]string{"-run", "fig2", "-procs", "200", "-scale", "64"}, []string{"-procs 200", "capacity of 128"}},
		{[]string{"-run", "fig3", "-procs", "8,200", "-scale", "64"}, []string{"-procs 200", "capacity of 128"}},
	} {
		code, stdout, stderr := runCLI(append([]string{"experiments"}, c.args...)...)
		if code != 2 || stdout != "" {
			t.Errorf("%q: exit %d, stdout %q; want exit 2 and no output", c.args, code, stdout)
		}
		for _, w := range c.want {
			if !strings.Contains(stderr, w) {
				t.Errorf("%q: stderr %q does not name %s", c.args, stderr, w)
			}
		}
	}
}

// TestExperimentsRunsFigureAlias: fig6 is one of the names Run accepts,
// so the -run check lets it through to the Figures 5-8 driver.
func TestExperimentsRunsFigureAlias(t *testing.T) {
	code, stdout, stderr := runCLI("experiments", "-run", "fig6", "-scale", "1024", "-procs", "2", "-steps", "1")
	if code != 0 || !strings.Contains(stdout, "\nFigure 6: FFT, ") {
		t.Errorf("exit %d, stderr %q, stdout\n%s\nwant Figure 6", code, stderr, stdout)
	}
}
