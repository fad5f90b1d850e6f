package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"origin2000/internal/core"
	"origin2000/internal/metrics"
	"origin2000/internal/sim"
	"origin2000/internal/snapshot"
)

// TestCheckEngine: a bad -engine or a negative -workers exits 2 naming its
// flag, on the run path and the resume path alike, before either starts.
func TestCheckEngine(t *testing.T) {
	for _, e := range []string{"serial", "parallel"} {
		if err := checkEngine(e); err != nil {
			t.Errorf("-engine %s refused: %v", e, err)
		}
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
		code, _, stderr := runCLI(append([]string{"run"}, c.args...)...)
		if code != 2 || !strings.Contains(stderr, c.flag) {
			t.Errorf("%q: exit %d, stderr %q; want exit 2 naming %s", c.args, code, stderr, c.flag)
		}
	}
}

// TestResumeRefusesIgnoredFlags: a checkpoint records the run it resumes,
// so -resume takes only the flags that do not change it. Any other flag
// set explicitly exits 2 naming it, before the (here missing) checkpoint
// is read; the flags it takes get as far as reading it, and exit 1.
func TestResumeRefusesIgnoredFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "x.json"},
		{"-breakdown"},
		{"-arrays"},
		{"-phases"},
		{"-explain"},
		{"-record", "r.json"},
		{"-app", "Radix"},
		{"-procs", "16"},
		{"-scale", "64"},
		{"-seed", "7"},
		{"-mapping", "random"},
		{"-list"},
	} {
		code, stdout, stderr := runCLI(append([]string{"run", "-resume", "missing.originckpt"}, args...)...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, args[0]) || strings.Contains(stderr, "missing.originckpt") {
			t.Errorf("-resume with %q: exit %d, stdout %q, stderr %q; want exit 2 naming %s before reading the file",
				args, code, stdout, stderr, args[0])
		}
	}
	dir := t.TempDir()
	for _, args := range [][]string{
		nil,
		{"-scenario", "origin"},
		{"-engine", "parallel", "-workers", "2"},
		{"-checkpoint-every", "1ms", "-checkpoint-dir", dir},
	} {
		code, _, stderr := runCLI(append([]string{"run", "-resume", "missing.originckpt"}, args...)...)
		if code != 1 || !strings.Contains(stderr, "missing.originckpt") {
			t.Errorf("-resume with %q: exit %d, stderr %q; want exit 1 reading the file", args, code, stderr)
		}
	}
}

// TestZeroCaptureSaysWhy: FFT on 4 processors puts every processor on one
// router, so the machine has one shard and no quiescent point after its
// first round. A checkpointed run of it captures nothing, and must say
// so and exit 1 instead of printing a resume hint.
func TestZeroCaptureSaysWhy(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI("run", "-app", "FFT", "-procs", "4", "-scale", "64",
		"-checkpoint-every", "1ms", "-checkpoint-dir", dir)
	if code != 1 || !strings.Contains(stderr, "captured no checkpoint") || !strings.Contains(stderr, "one shard") {
		t.Errorf("exit %d, stderr %q; want exit 1 naming the one shard", code, stderr)
	}
	if strings.Contains(stdout, "-resume") {
		t.Errorf("a run that captured nothing printed the resume hint:\n%s", stdout)
	}
}

// TestNoQuietRoundSaysWhy: a machine of several shards can have no
// quiescent point either. Sixteen processors on four routers each make
// 3,000 random reads and writes of one shared 16K-word array, with 100 ns
// of compute between accesses, so every round opens with a cross-shard
// transaction, lock or barrier in flight. No grid from half the run down
// to 1/200 of it captures, and the message says why.
func TestNoQuietRoundSaysWhy(t *testing.T) {
	dir := t.TempDir()
	run := func(every sim.Time) *core.Machine {
		cfg := core.Origin2000(16)
		cfg.Checkpoint.Every, cfg.Checkpoint.Dir = every, dir
		m := core.New(cfg)
		const words = 16 << 10
		arr := m.Alloc("shared", words, 8)
		err := m.Run(func(p *core.Proc) {
			x := uint64(p.ID())*0x9e3779b97f4a7c15 + 1
			for i := 0; i < 3000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				if addr := arr.Addr(int(x % words)); x>>32&1 == 1 {
					p.Write(addr)
				} else {
					p.Read(addr)
				}
				p.Compute(100 * sim.Nanosecond)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	straight := run(0)
	if n := straight.Fabric().NumRouters(); n != 4 {
		t.Fatalf("16 processors sit on %d routers, want 4", n)
	}
	for _, div := range []sim.Time{2, 10, 50, 200} {
		every := straight.Elapsed() / div
		m := run(every)
		if n := len(m.Checkpoints()); n != 0 {
			t.Fatalf("grid %v captured %d checkpoints; the test needs a run with no quiet round", every, n)
		}
		msg := noCapture(m, every)
		for _, want := range []string{"no round opened at or after the first grid point", "no lock, barrier or cross-shard transaction in flight", "communication-heavy"} {
			if !strings.Contains(msg, want) {
				t.Errorf("grid %v: %q does not say %q", every, msg, want)
			}
		}
	}
}

// TestCheckpointRoundTrip drives -checkpoint-every and -resume through the
// command: every file it writes is a small originckpt/v2 checkpoint, and
// a resume from the middle one reports the straight run's counters.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	code, straight, stderr := runCLI("run", "-app", "FFT", "-procs", "8", "-scale", "64",
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
	code, resumed, stderr := runCLI("run", "-resume", files[len(files)/2])
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
	code, _, stderr := runCLI("run", "-resume", path)
	if code != 1 || !strings.Contains(stderr, "129 processors exceed") {
		t.Errorf("exit %d, stderr %q; want exit 1 naming the directory's capacity", code, stderr)
	}
}

// TestRunExplain: -explain prints the sharing diagnosis after the run's own
// output, which the classifier leaves unchanged, and -top bounds its
// ranked tables.
func TestRunExplain(t *testing.T) {
	run := []string{"run", "-app", "FFT", "-procs", "8", "-scale", "64"}
	code, plain, stderr := runCLI(run...)
	if code != 0 {
		t.Fatalf("plain run: exit %d: %s", code, stderr)
	}
	code, explained, stderr := runCLI(append(run, "-explain", "-top", "2")...)
	if code != 0 {
		t.Fatalf("explained run: exit %d: %s", code, stderr)
	}
	report, ok := strings.CutPrefix(explained, plain)
	if !ok {
		t.Fatalf("-explain changed the run's output:\n%s\nwant it to begin with\n%s", explained, plain)
	}
	if !strings.HasPrefix(report, "== FFT at 8 processors (scale 1/64): ") || !strings.Contains(report, "\nverdict: ") {
		t.Errorf("report does not diagnose FFT at 8 processors:\n%s", report)
	}
	_, hottest, _ := strings.Cut(report, "\nHottest blocks\n")
	if rows := strings.Split(strings.SplitN(hottest, "\n\n", 2)[0], "\n"); len(rows) != 2+2 {
		t.Errorf("-top 2 printed %d hottest-block lines, want a header, a rule and 2 rows:\n%s", len(rows), hottest)
	}
}

// TestRunRecord: -record writes the run's artifact with its sharing report,
// and it serves as a side of origin diff: against itself, and against the
// live first-touch run of the same machine, it differs by nothing.
func TestRunRecord(t *testing.T) {
	rec := filepath.Join(t.TempDir(), "fft.json")
	run := []string{"-app", "FFT", "-procs", "8", "-scale", "64"}
	if code, _, stderr := runCLI(append([]string{"run", "-record", rec}, run...)...); code != 0 {
		t.Fatalf("recorded run: exit %d: %s", code, stderr)
	}
	a, err := metrics.ReadArtifact(rec)
	if err != nil {
		t.Fatal(err)
	}
	if a.App != "FFT" || a.Procs != 8 || a.Sharing == nil || a.Sharing.Blocks == 0 {
		t.Errorf("record holds %s at %d procs with sharing report %v; want FFT at 8 with one", a.App, a.Procs, a.Sharing)
	}
	for _, b := range []string{rec, "placement=ft"} {
		code, stdout, stderr := runCLI(append([]string{"diff", "-a", rec, "-b", b}, run...)...)
		if code != 0 || !strings.Contains(stdout, "delta: +0.000 ms") {
			t.Errorf("diff of the record against %s: exit %d, stderr %q, stdout\n%s\nwant a zero delta", b, code, stderr, stdout)
		}
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
