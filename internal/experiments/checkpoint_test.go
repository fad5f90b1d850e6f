package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"origin2000/internal/core"
	"origin2000/internal/sim"
	"origin2000/internal/snapshot"
	"origin2000/internal/workload"
)

// The refusal and bisection tier of the checkpoint conformance suite
// (DESIGN.md §13): a tampered snapshot or a mismatched worker request must
// fail loudly, and bisection must find a seeded fault's window. Resume
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

// TestResumeDivergenceDetected tampers with a snapshot's simulation state;
// the resume proof must fail with a DivergenceError naming the section
// rather than continue from wrong state.
func TestResumeDivergenceDetected(t *testing.T) {
	app, params := ckptParams(t, "FFT")
	s := Scale{Div: 64, CacheDiv: 64}
	straight, err := s.Run(app, 32, params)
	if err != nil {
		t.Fatal(err)
	}
	_, snaps, err := s.RunCheckpointed(app, 32, params, straight.Elapsed/2, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots captured")
	}
	sn := snaps[0]
	sn.Caches[3].Clock += 17
	_, err = s.ResumeRun(app, 32, params, sn)
	div, ok := err.(*snapshot.DivergenceError)
	if !ok {
		t.Fatalf("tampered resume returned %T (%v), want *snapshot.DivergenceError", err, err)
	}
	if div.Section != "caches" {
		t.Errorf("divergence reported in section %q, want caches", div.Section)
	}
	if div.Seq != sn.Header.QuiesSeq {
		t.Errorf("divergence at seq %d, want the snapshot's quiescent point %d", div.Seq, sn.Header.QuiesSeq)
	}
}

// TestResumeWorkersMismatch: a snapshot from a run whose worker count was
// forced to one (checker on) must refuse a resume that requests more
// workers, loudly, before any replay happens.
func TestResumeWorkersMismatch(t *testing.T) {
	app, params := ckptParams(t, "FFT")
	s := Scale{Div: 64, CacheDiv: 64, Check: true}
	straight, err := s.Run(app, 32, params)
	if err != nil {
		t.Fatal(err)
	}
	_, snaps, err := s.RunCheckpointed(app, 32, params, straight.Elapsed/2, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots captured")
	}
	sn := snaps[0]
	if !sn.Header.WorkersForced {
		t.Fatal("checked run's snapshot does not record the workers=1 forcing")
	}
	rs := Scale{Div: 64, CacheDiv: 64, Engine: "parallel", Workers: 8, Check: true}
	_, err = rs.ResumeRun(app, 32, params, sn)
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
