package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"origin2000/internal/core"
	"origin2000/internal/metrics"
	"origin2000/internal/sim"
	"origin2000/internal/snapshot"
	"origin2000/internal/trace"
	"origin2000/internal/workload"
)

// The refusal and bisection tier of the checkpoint conformance suite
// (DESIGN.md §13): a tampered snapshot, or a mismatched observer set or
// worker request, must fail loudly, and bisection must find a seeded
// fault's window. Resume
// equivalence itself is the contract suite's (contract_test.go). The
// scale matches it (Div 64, 32 processors).

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
	// The sink's ErrStopped ends the run as StopAtSeq would, which replay
	// treats as success.
	var sn *snapshot.Snapshot
	cfg.Checkpoint.Sink = func(first *snapshot.Snapshot) error {
		sn = first
		return core.ErrStopped
	}
	if _, err := s.replay(app, cfg, params); err != nil {
		t.Fatal(err)
	}
	if sn == nil {
		t.Fatal("no snapshot captured")
	}
	return s, app, params, sn
}

// TestResumeDivergenceDetected tampers with one field of one section of a
// snapshot whose run had every observer on: the simulation state, or any
// observer's. The resume replays the prefix with the observers recording,
// so the proof must fail at the snapshot's quiescent point with a
// DivergenceError naming that section rather than continue from state the
// replay did not reproduce.
func TestResumeDivergenceDetected(t *testing.T) {
	s, app, params, orig := observedCapture(t)
	// Each case tampers with a shallow copy of the snapshot, copying what
	// it changes, so the cases share the captured state untouched.
	for _, c := range []struct {
		name, section string
		tamper        func(*snapshot.Snapshot)
	}{
		{"caches", "caches", func(sn *snapshot.Snapshot) {
			sn.Caches = slices.Clone(sn.Caches)
			sn.Caches[3].Clock += 17
		}},
		{"checker", "checker", func(sn *snapshot.Snapshot) {
			ck := *sn.Checker
			ck.Events++
			sn.Checker = &ck
		}},
		{"tracer", "tracer", func(sn *snapshot.Snapshot) {
			tr := *sn.Tracer
			tr.Rings = slices.Clone(tr.Rings)
			tr.Rings[5].N++
			sn.Tracer = &tr
		}},
		{"metrics", "metrics", func(sn *snapshot.Snapshot) {
			ms := *sn.Metrics
			ms.MachNext++
			sn.Metrics = &ms
		}},
		{"sharing", "sharing", func(sn *snapshot.Snapshot) {
			sh := *sn.Sharing
			sh.NodeRemote = slices.Clone(sh.NodeRemote)
			sh.NodeRemote[0]++
			sn.Sharing = &sh
		}},
		// Versions before the dense heat index kept heat per shard: the
		// same heat with the page entries in another shard's bucket. The
		// proof refuses that layout rather than fold it.
		{"tracer heat in per-shard layout", "tracer", func(sn *snapshot.Snapshot) {
			tr := *sn.Tracer
			tr.Buckets = slices.Clone(tr.Buckets)
			tr.Buckets[0].Pages, tr.Buckets[1].Pages = nil, tr.Buckets[0].Pages
			sn.Tracer = &tr
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sn := *orig
			c.tamper(&sn)
			_, err := s.ResumeRun(app, 32, params, &sn)
			div, ok := err.(*snapshot.DivergenceError)
			if !ok {
				t.Fatalf("tampered resume returned %T (%v), want *snapshot.DivergenceError", err, err)
			}
			if div.Section != c.section {
				t.Errorf("divergence reported in section %q, want %s", div.Section, c.section)
			}
			if div.Seq != sn.Header.QuiesSeq {
				t.Errorf("divergence at seq %d, want the snapshot's quiescent point %d", div.Seq, sn.Header.QuiesSeq)
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
		name string
		off  func(*Scale, *snapshot.Snapshot)
	}{
		{"checker", func(s *Scale, sn *snapshot.Snapshot) { s.Check, sn.Checker = false, nil }},
		{"tracer", func(s *Scale, sn *snapshot.Snapshot) { s.Trace.Enabled, sn.Tracer = false, nil }},
		{"metrics sampler", func(s *Scale, sn *snapshot.Snapshot) { s.Metrics.Enabled, sn.Metrics = false, nil }},
		{"sharing classifier", func(s *Scale, sn *snapshot.Snapshot) { s.Sharing, sn.Sharing = false, nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			off, dropped := s, *sn
			c.off(&off, &dropped)
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

// TestBisectDroppedInvalidation is the time-travel acceptance test: seed a
// lost-invalidation fault mid-run, checkpoint periodically, and require the
// bisection to land on exactly the window containing the drop — confirmed
// by a checker replay whose violation times fall inside that window.
func TestBisectDroppedInvalidation(t *testing.T) {
	// Ocean writes heavily enough to send ~18k invalidations at this scale,
	// and a stale line it leaves behind survives to the end of the run (the
	// audit verdict stays monotone), which is what makes the binary search
	// sound. FFT would be useless here: it sends none at all.
	app, params := ckptParams(t, "Ocean")
	const dropAt = 8000 // drop the Nth invalidation the directory sends
	s := Scale{Div: 64, CacheDiv: 64}
	s.OnMachine = func(_ string, m *core.Machine) {
		n := 0
		m.FaultDropInvalidation(func(block uint64, proc int) bool {
			n++
			return n == dropAt
		})
	}

	// Healthy elapsed time sizes the checkpoint grid (the faulted run only
	// differs in timing noise).
	healthy, err := Scale{Div: 64, CacheDiv: 64}.Run(app, 32, params)
	if err != nil {
		t.Fatal(err)
	}
	every := healthy.Elapsed / 8

	_, snaps, err := s.RunCheckpointed(app, 32, params, every, "")
	if err != nil {
		t.Fatalf("faulted run failed outright: %v", err)
	}
	if len(snaps) < 3 {
		t.Fatalf("only %d snapshots captured; the bisection needs a few", len(snaps))
	}

	rep, err := s.BisectViolation(app, 32, params, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstBad < 0 {
		t.Fatal("bisection found no corrupt checkpoint despite the seeded fault")
	}
	if len(rep.Audit) == 0 {
		t.Fatal("report carries no static audit findings")
	}
	// The binary search must agree with an exhaustive scan: everything
	// before FirstBad audits clean, FirstBad audits dirty.
	for i := 0; i < rep.FirstBad; i++ {
		if v := snapshot.AuditState(snaps[i]); len(v) != 0 {
			t.Fatalf("snapshot %d (< FirstBad=%d) audits dirty: %v", i, rep.FirstBad, v)
		}
	}
	if v := snapshot.AuditState(snaps[rep.FirstBad]); len(v) == 0 {
		t.Fatalf("snapshot FirstBad=%d audits clean", rep.FirstBad)
	}
	// The confirming replay must have tripped the coherence checker inside
	// the reported window — the drop itself, not just its aftermath.
	if len(rep.Violations) == 0 {
		t.Fatalf("confirming replay found no checker violations in window (%v, %v]",
			rep.WindowStart, rep.WindowEnd)
	}
	foundDrop := false
	for _, v := range rep.Violations {
		if v.At <= rep.WindowStart || v.At > rep.WindowEnd {
			t.Errorf("violation at %v outside the reported window (%v, %v]", v.At, rep.WindowStart, rep.WindowEnd)
		}
		if strings.Contains(v.Msg, "invalidation") {
			foundDrop = true
		}
	}
	if !foundDrop {
		t.Errorf("no violation names the dropped invalidation; got: %v", rep.Violations[0])
	}
}

// TestBisectCleanRun: a healthy run's checkpoints audit clean and the
// bisection reports no fault.
func TestBisectCleanRun(t *testing.T) {
	app, params := ckptParams(t, "FFT")
	s := Scale{Div: 64, CacheDiv: 64}
	straight, err := s.Run(app, 32, params)
	if err != nil {
		t.Fatal(err)
	}
	_, snaps, err := s.RunCheckpointed(app, 32, params, straight.Elapsed/4, "")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.BisectViolation(app, 32, params, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstBad != -1 {
		t.Fatalf("clean run bisected to snapshot %d: %v", rep.FirstBad, rep.Audit)
	}
}

// TestBisectValidatesCheckpoints: a checkpoint that decodes but whose
// cache arrays disagree with their geometry must fail bisection with a
// FormatError naming the section, not panic inside the audit.
func TestBisectValidatesCheckpoints(t *testing.T) {
	sn, err := snapshot.ReadFile("../snapshot/testdata/originckpt_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	sn.Caches[0].Tags = sn.Caches[0].Tags[:1]
	app := AppByName(sn.Header.Spec.App)
	s := Scale{Div: sn.Header.Spec.Div, CacheDiv: sn.Header.Spec.CacheDiv}
	_, err = s.BisectViolation(app, sn.Header.Procs, SpecParams(sn.Header.Spec), []*snapshot.Snapshot{sn})
	var fe *snapshot.FormatError
	if !errors.As(err, &fe) || fe.Section != "caches" {
		t.Fatalf("BisectViolation = %v, want a FormatError in section \"caches\"", err)
	}
}

// TestCheckpointSectionsPinned pins the simulation sections a resume proof
// compares — every node's directory and the page table with its migrator —
// across versions of the simulator, not only on a synthetic fixture. It
// captures every 50 µs of two contract keys, migrating Water-Nsquared and
// FFT, hashes each snapshot's Directories and MemPolicy JSON in capture
// order, and compares the result with constants recorded on the code that
// wrote them. A change to how page or directory state is stored must leave
// them equal, or a checkpoint written before it would no longer resume.
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
			cfg.Checkpoint.Sink = func(sn *snapshot.Snapshot) error {
				for _, sec := range []any{sn.Directories, sn.MemPolicy} {
					b, err := json.Marshal(sec)
					if err != nil {
						return err
					}
					h.Write(b)
				}
				n, gen = n+1, sn.MemPolicy.Gen
				return nil
			}
			if _, err := s.RunConfig(app, cfg, s.Params(app, app.BasicSize(), "")); err != nil {
				t.Fatal(err)
			}
			got := hex.EncodeToString(h.Sum(nil))[:16]
			if n != tc.snaps || gen != tc.gen || got != tc.hash {
				t.Fatalf("%d snapshots, last gen %d, hash %s; want %d, %d, %s",
					n, gen, got, tc.snaps, tc.gen, tc.hash)
			}
		})
	}
}
