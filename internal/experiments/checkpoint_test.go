package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"

	"origin2000/internal/core"
	"origin2000/internal/metrics"
	"origin2000/internal/sim"
	"origin2000/internal/snapshot"
	"origin2000/internal/trace"
	"origin2000/internal/workload"
)

// The refusal tier of the checkpoint conformance suite (DESIGN.md §13): a
// snapshot whose digests the replay does not reproduce, or a mismatched
// observer set or worker request, must fail loudly. Resume equivalence
// itself is the contract suite's (contract_test.go). The scale matches it
// (Div 64, 32 processors).

// ckptParams returns (app, params) at the conformance scale.
func ckptParams(t *testing.T, appName string) (workload.App, workload.Params) {
	t.Helper()
	app := AppByName(appName)
	if app == nil {
		t.Fatalf("unknown app %q", appName)
	}
	s := Scale{Div: 64, CacheDiv: 64}
	return app, s.Params(app, app.BasicSize(), "")
}

// errFirstCapture is the Sink error that ends observedCapture's run at its
// first checkpoint.
var errFirstCapture = errors.New("stopped at the first checkpoint")

// observedCapture runs FFT at the conformance scale with the checker,
// tracer, metrics sampler and sharing classifier all on, and stops it at
// its first checkpoint, 4 ms in (the run takes about 32 ms). It returns
// the scale, the run and that snapshot.
func observedCapture(t *testing.T) (Scale, workload.App, workload.Params, *snapshot.Snapshot) {
	t.Helper()
	app, params := ckptParams(t, "FFT")
	s := Scale{Div: 64, CacheDiv: 64, Check: true, Trace: trace.Options{Enabled: true},
		Metrics: metrics.Options{Enabled: true}, Sharing: true}
	cfg := s.Machine(32)
	cfg.Checkpoint.Every = 4 * sim.Millisecond
	cfg.Checkpoint.Spec = s.RunSpec(app, params)
	var sn *snapshot.Snapshot
	cfg.Checkpoint.Sink = func(first *snapshot.Snapshot) error {
		sn = first
		return errFirstCapture
	}
	func() {
		// A Sink error leaves the run as a panic wrapping it.
		defer func() {
			if p := recover(); p != nil {
				if e, ok := p.(error); !ok || !errors.Is(e, errFirstCapture) {
					panic(p)
				}
			}
		}()
		if _, err := s.RunConfig(app, cfg, params); err != nil {
			t.Fatal(err)
		}
	}()
	if sn == nil {
		t.Fatal("no snapshot captured")
	}
	return s, app, params, sn
}

// withDigest returns a copy of sn whose section digest is altered.
func withDigest(sn *snapshot.Snapshot, section string) *snapshot.Snapshot {
	c := *sn
	c.Digests = maps.Clone(sn.Digests)
	d := c.Digests[section]
	d[0] ^= 1
	c.Digests[section] = d
	return &c
}

// TestResumeDivergenceDetected: the resume proof must refuse a snapshot
// the replay does not reproduce, naming the first section that differs.
// Altering any section's digest of a snapshot whose run had every observer
// on fails ProveEqual in that section; a resume from such a snapshot, for
// a simulation section and an observer section, fails with a
// DivergenceError at the snapshot's quiescent point rather than continue.
// So does a resume whose replay differs instead: one that samples metrics
// on another grid reproduces the simulation but not the sampler, which
// shows a digest covers real observer state.
func TestResumeDivergenceDetected(t *testing.T) {
	s, app, params, orig := observedCapture(t)
	if len(orig.Digests) != 12 {
		t.Fatalf("observed capture holds %d sections, want every simulation and observer section (12)", len(orig.Digests))
	}
	for section := range orig.Digests {
		if got, ok := snapshot.ProveEqual(orig, withDigest(orig, section)); ok || got != section {
			t.Errorf("altered %s digest: ProveEqual reported (%q, %v), want (%s, false)", section, got, ok, section)
		}
	}
	resample := s
	resample.Metrics.Interval = 2 * metrics.DefaultInterval
	for _, c := range []struct {
		name, section string
		s             Scale
		sn            *snapshot.Snapshot
	}{
		{"caches", "caches", s, withDigest(orig, "caches")},
		{"sharing", "sharing", s, withDigest(orig, "sharing")},
		{"metrics", "metrics", resample, orig},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.s.ResumeRun(app, 32, params, c.sn)
			div, ok := err.(*snapshot.DivergenceError)
			if !ok {
				t.Fatalf("resume returned %T (%v), want *snapshot.DivergenceError", err, err)
			}
			if div.Section != c.section {
				t.Errorf("divergence reported in section %q, want %s", div.Section, c.section)
			}
			if div.Seq != orig.Header.QuiesSeq {
				t.Errorf("divergence at seq %d, want the snapshot's quiescent point %d", div.Seq, orig.Header.QuiesSeq)
			}
		})
	}
}

// TestResumeRefusesObserverMismatch: a resume whose configuration enables
// an observer the snapshot has no section for, or leaves off one it has,
// is refused by ValidateResume, naming the observer, before any machine is
// built.
func TestResumeRefusesObserverMismatch(t *testing.T) {
	s, app, params, sn := observedCapture(t)
	for _, c := range []struct {
		name, section string
		off           func(*Scale)
	}{
		{"checker", "checker", func(s *Scale) { s.Check = false }},
		{"tracer", "tracer", func(s *Scale) { s.Trace.Enabled = false }},
		{"metrics sampler", "metrics", func(s *Scale) { s.Metrics.Enabled = false }},
		{"sharing classifier", "sharing", func(s *Scale) { s.Sharing = false }},
	} {
		t.Run(c.name, func(t *testing.T) {
			off, dropped := s, *sn
			c.off(&off)
			dropped.Digests = maps.Clone(sn.Digests)
			delete(dropped.Digests, c.section)
			for _, r := range []struct {
				what string
				s    Scale
				sn   *snapshot.Snapshot
			}{
				{"configuration without it", off, sn},
				{"snapshot without it", s, &dropped},
			} {
				built := false
				r.s.OnMachine = func(string, *core.Machine) { built = true }
				_, err := r.s.ResumeRun(app, 32, params, r.sn)
				if err == nil || !strings.Contains(err.Error(), c.name) {
					t.Errorf("%s: resume err = %v, want a refusal naming the %s", r.what, err, c.name)
				}
				if built {
					t.Errorf("%s: a machine was built before the refusal", r.what)
				}
			}
		})
	}
}

// TestResumeWorkersMismatch: a snapshot from a run whose worker count was
// forced to one (the checker, sampler and classifier are on) must refuse a
// resume that requests more workers, loudly, before any replay happens.
func TestResumeWorkersMismatch(t *testing.T) {
	s, app, params, sn := observedCapture(t)
	if !sn.Header.WorkersForced {
		t.Fatal("observed run's snapshot does not record the workers=1 forcing")
	}
	s.Engine, s.Workers = "parallel", 8
	_, err := s.ResumeRun(app, 32, params, sn)
	if err == nil {
		t.Fatal("resume with 8 workers of a forced-single-worker snapshot succeeded")
	}
	if !strings.Contains(err.Error(), "workers") {
		t.Errorf("error does not explain the workers mismatch: %v", err)
	}
}

// TestCheckpointSectionsPinned pins the simulation sections a resume proof
// compares — every node's directory and the page table with its migrator —
// across versions of the simulator, not only on a synthetic fixture. It
// captures every 50 µs of two contract keys, migrating Water-Nsquared and
// FFT, hashes the machine's directories and mempolicy section JSON at each
// capture in order, and compares the result with constants recorded on the
// code that wrote them. A change to how page or directory state is stored
// must leave them equal, or a checkpoint written before it would no longer
// resume. Each capture's two digests must be the SHA-256 of that same
// JSON, so the constants pin what a checkpoint records.
func TestCheckpointSectionsPinned(t *testing.T) {
	cases := []struct {
		key   contractKey
		snaps int
		gen   uint32 // the last snapshot's: 1 plus the migrations so far
		hash  string
	}{
		{contractKey{app: "Water-Nsquared", procs: 32, scenario: "origin", migrate: true}, 1784, 103, "52793d3e2493629b"},
		{appKey("FFT"), 307, 1, "c0591ba6c7f91cda"},
	}
	for _, tc := range cases {
		t.Run(tc.key.app, func(t *testing.T) {
			app := AppByName(tc.key.app)
			s := Scale{Div: 64, CacheDiv: 64, Seed: 42}
			cfg := tc.key.config(s)
			cfg.Checkpoint.Every = 50 * sim.Microsecond
			h := sha256.New()
			var n int
			var gen uint32
			var m *core.Machine
			s.OnMachine = func(_ string, mm *core.Machine) { m = mm }
			var unproved string // the first capture whose digest is not of this JSON
			cfg.Checkpoint.Sink = func(sn *snapshot.Snapshot) error {
				pages := m.PageTable().Snap()
				for _, sec := range []struct {
					name string
					v    any
				}{{"directories", m.Directory().Snaps()}, {"mempolicy", pages}} {
					b, err := json.Marshal(sec.v)
					if err != nil {
						return err
					}
					h.Write(b)
					if unproved == "" && snapshot.Digest(sha256.Sum256(b)) != sn.Digests[sec.name] {
						unproved = fmt.Sprintf("capture %d: the %s digest is not the SHA-256 of the section's JSON", n, sec.name)
					}
				}
				n, gen = n+1, pages.Gen
				return nil
			}
			if _, err := s.RunConfig(app, cfg, s.Params(app, app.BasicSize(), "")); err != nil {
				t.Fatal(err)
			}
			if unproved != "" {
				t.Error(unproved)
			}
			got := hex.EncodeToString(h.Sum(nil))[:16]
			if n != tc.snaps || gen != tc.gen || got != tc.hash {
				t.Fatalf("%d snapshots, last gen %d, hash %s; want %d, %d, %s",
					n, gen, got, tc.snaps, tc.gen, tc.hash)
			}
		})
	}
}
