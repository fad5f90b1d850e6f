package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"origin2000/internal/snapshot"
)

// runCLI runs the command with args and returns its exit code, stdout and
// stderr.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestCheckEngine: a bad -engine or a negative -workers exits 2 naming its
// flag, on the run path and the resume path alike, before either starts.
func TestCheckEngine(t *testing.T) {
	if err := checkEngine("serial", 0); err != nil {
		t.Errorf("serial with 0 workers refused: %v", err)
	}
	if err := checkEngine("parallel", 4); err != nil {
		t.Errorf("parallel with 4 workers refused: %v", err)
	}
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-engine", []string{"-engine", "bogus"}},
		{"-workers", []string{"-workers", "-3"}},
		{"-engine", []string{"-resume", "missing.originckpt", "-engine", "bogus"}},
		{"-workers", []string{"-resume", "missing.originckpt", "-engine", "parallel", "-workers", "-3"}},
	} {
		code, _, stderr := runCLI(c.args...)
		if code != 2 || !strings.Contains(stderr, c.flag) {
			t.Errorf("%q: exit %d, stderr %q; want exit 2 naming %s", c.args, code, stderr, c.flag)
		}
	}
}

// TestZeroCaptureSaysWhy: FFT on 4 processors puts every processor on one
// router, so the machine has one shard and no quiescent point after its
// first round. A checkpointed run of it captures nothing, and must say
// so and exit 1 instead of printing a resume hint.
func TestZeroCaptureSaysWhy(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI("-app", "FFT", "-procs", "4", "-scale", "64",
		"-checkpoint-every", "1ms", "-checkpoint-dir", dir)
	if code != 1 || !strings.Contains(stderr, "captured no checkpoint") || !strings.Contains(stderr, "one shard") {
		t.Errorf("exit %d, stderr %q; want exit 1 naming the one shard", code, stderr)
	}
	if strings.Contains(stdout, "-resume") {
		t.Errorf("a run that captured nothing printed the resume hint:\n%s", stdout)
	}
}

// TestCheckpointRoundTrip drives -checkpoint-every and -resume through the
// command: every file it writes is a small originckpt/v2 checkpoint, and
// a resume from the middle one reports the straight run's counters.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	code, straight, stderr := runCLI("-app", "FFT", "-procs", "8", "-scale", "64",
		"-checkpoint-every", "10ms", "-checkpoint-dir", dir)
	if code != 0 {
		t.Fatalf("checkpointed run: exit %d: %s", code, stderr)
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.originckpt"))
	if err != nil || len(files) < 3 {
		t.Fatalf("%d checkpoint files (%v); want a few", len(files), err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) >= 8<<10 {
			t.Errorf("%s is %d bytes, want under 8 KB", f, len(raw))
		}
		sn, err := snapshot.Decode(raw)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if raw[8] != snapshot.Version || sn.Header.Version != snapshot.Version {
			t.Errorf("%s: container version %d, header version %d; want %d", f, raw[8], sn.Header.Version, snapshot.Version)
		}
	}
	code, resumed, stderr := runCLI("-resume", files[len(files)/2])
	if code != 0 {
		t.Fatalf("resume: exit %d: %s", code, stderr)
	}
	for _, prefix := range []string{"breakdown:", "misses:", "traffic:"} {
		if a, b := line(straight, prefix), line(resumed, prefix); a == "" || a != b {
			t.Errorf("straight run %q, resumed run %q", a, b)
		}
	}
	if a, b := strings.Fields(line(straight, "parallel:")), strings.Fields(line(resumed, "parallel:")); len(a) < 2 || len(b) < 2 || a[1] != b[1] {
		t.Errorf("straight run elapsed %v, resumed run %v", a, b)
	}
}

// TestResumeRefusesOversizedMachine: a checkpoint whose header and Config
// both name 129 processors, one more than the default scenario's directory
// tracks, is refused with exit 1 naming that capacity, not a panic from
// building the machine.
func TestResumeRefusesOversizedMachine(t *testing.T) {
	sn := &snapshot.Snapshot{Header: snapshot.Header{
		Version:  snapshot.Version,
		Procs:    129,
		QuiesSeq: 1,
		Spec:     snapshot.RunSpec{App: "FFT", Div: 64, CacheDiv: 64},
		Config:   []byte(`{"Procs":129}`),
	}}
	for _, name := range []string{"engine", "procs", "caches", "directories", "mempolicy", "resources", "memory", "syncs"} {
		if err := sn.Add(name, name); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "ckpt-000001.originckpt")
	if err := sn.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI("-resume", path)
	if code != 1 || !strings.Contains(stderr, "129 processors exceed") {
		t.Errorf("exit %d, stderr %q; want exit 1 naming the directory's capacity", code, stderr)
	}
}

// line returns the first line of out that starts with prefix.
func line(out, prefix string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	return ""
}
