package trace

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"origin2000/internal/sim"
)

func TestCaptureArtifactDisabledIsNoOp(t *testing.T) {
	t.Setenv(ArtifactEnv, "")
	called := false
	path, err := CaptureArtifact("x", func(Options) (*Tracer, error) {
		called = true
		return nil, nil
	})
	if path != "" || err != nil || called {
		t.Errorf("disabled capture: path=%q err=%v called=%v", path, err, called)
	}
}

func TestCaptureArtifactWritesDecodableTrace(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(ArtifactEnv, dir)
	path, err := CaptureArtifact("fft-golden-p4", func(o Options) (*Tracer, error) {
		if !o.Enabled || !o.Lossless {
			t.Errorf("re-run options not lossless-enabled: %+v", o)
		}
		tr := New(2, o)
		tr.GrowPages(2)
		tr.Miss(0, 0, 500*sim.Nanosecond, 1<<7, 1, 3, 0, 2, EvMissRemoteClean)
		// The scenario failing is the normal case; a non-nil tracer must
		// still be written.
		return tr, errors.New("checksum mismatch")
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "fft-golden-p4.perfetto.json"); path != want {
		t.Errorf("path = %q, want %q", path, want)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	streams, err := DecodePerfetto(f)
	if err != nil {
		t.Fatalf("artifact does not decode: %v", err)
	}
	if len(streams) != 2 || len(streams[0]) != 1 {
		t.Errorf("artifact streams wrong: %d procs, %d events", len(streams), len(streams[0]))
	}
}

func TestCaptureArtifactErrors(t *testing.T) {
	t.Setenv(ArtifactEnv, t.TempDir())
	if _, err := CaptureArtifact("x", func(Options) (*Tracer, error) {
		return nil, errors.New("rebuild failed")
	}); err == nil {
		t.Error("nil tracer + error must fail")
	}
	if _, err := CaptureArtifact("x", func(Options) (*Tracer, error) {
		return nil, nil
	}); err == nil {
		t.Error("nil tracer must fail")
	}
}
