package experiments

import (
	"encoding/json"
	"errors"
	"fmt"

	"origin2000/internal/check"
	"origin2000/internal/core"
	"origin2000/internal/scenario"
	"origin2000/internal/sim"
	"origin2000/internal/snapshot"
	"origin2000/internal/synchro"
	"origin2000/internal/workload"
)

// Checkpoint drivers: capture a run's originckpt/v1 snapshots, resume from
// one with the resume-equivalence proof, and bisect a protocol fault to the
// window that introduced it. See internal/snapshot and DESIGN.md §13.

// RunSpec builds the snapshot header spec identifying (app, params) at this
// scale, so a decoded checkpoint names the run that produced it.
func (s Scale) RunSpec(app workload.App, params workload.Params) snapshot.RunSpec {
	s = s.normalize()
	spec := snapshot.RunSpec{
		App:      app.Name(),
		Size:     params.Size,
		Variant:  params.Variant,
		Prefetch: params.Prefetch,
		Div:      s.Div,
		CacheDiv: s.CacheDiv,
		Steps:    params.Steps,
		Seed:     params.Seed,
		Lock:     int(params.Lock),
		Barrier:  int(params.Barrier),
	}
	if s.Scenario != nil {
		spec.Scenario = s.Scenario.Name
		spec.ScenarioHash = s.Scenario.Hash()
	}
	return spec
}

// SpecParams rebuilds the workload parameters a snapshot's run used from
// its header spec — the inverse of RunSpec.
func SpecParams(spec snapshot.RunSpec) workload.Params {
	return workload.Params{
		Size:     spec.Size,
		Variant:  spec.Variant,
		Prefetch: spec.Prefetch,
		Seed:     spec.Seed,
		Steps:    spec.Steps,
		Lock:     synchro.LockAlgorithm(spec.Lock),
		Barrier:  synchro.BarrierAlgorithm(spec.Barrier),
	}
}

// RunCheckpointed executes app with snapshots captured every `every` of
// virtual time, collected in memory (and written to dir when non-empty).
func (s Scale) RunCheckpointed(app workload.App, procs int, params workload.Params, every sim.Time, dir string) (RunResult, []*snapshot.Snapshot, error) {
	cfg := s.Machine(procs)
	cfg.Checkpoint.Every = every
	cfg.Checkpoint.Dir = dir
	cfg.Checkpoint.Spec = s.RunSpec(app, params)
	var snaps []*snapshot.Snapshot
	cfg.Checkpoint.Sink = func(sn *snapshot.Snapshot) error {
		snaps = append(snaps, sn)
		return nil
	}
	r, err := s.RunConfig(app, cfg, params)
	return r, snaps, err
}

// ValidateResume checks a snapshot against the configuration that wants to
// resume it, before any replay work happens. The processor count must
// match, and so must the observers: the replay rebuilds each enabled
// observer's section and proves it equal, so a configuration that enables
// an observer the snapshot has no section for, or the reverse, could never
// resume. A snapshot whose run had its worker count forced to one by an
// observer may not be resumed with more workers requested — the request
// could not be honored, so it errors loudly instead.
func ValidateResume(cfg *core.Config, sn *snapshot.Snapshot) error {
	if err := sn.Validate(); err != nil {
		return err
	}
	if cfg.Procs != sn.Header.Procs {
		return fmt.Errorf("experiments: resume: configuration has %d processors, snapshot has %d",
			cfg.Procs, sn.Header.Procs)
	}
	for _, o := range []struct {
		name, section string
		on, present   bool
	}{
		{"checker", "checker", cfg.Check, sn.Checker != nil},
		{"tracer", "tracer", cfg.Trace.Enabled, sn.Tracer != nil},
		{"metrics sampler", "metrics", cfg.Metrics.Enabled, sn.Metrics != nil},
		{"sharing classifier", "sharing", cfg.Sharing.Enabled, sn.Sharing != nil},
	} {
		if o.on != o.present {
			return fmt.Errorf("experiments: resume: the configuration has the %s enabled=%v but the snapshot's %q section present=%v; "+
				"resume with the observers the snapshot was captured with", o.name, o.on, o.section, o.present)
		}
	}
	if sn.Header.WorkersForced && cfg.Workers > 1 {
		return fmt.Errorf("experiments: resume: snapshot's run forced workers=1 (checker, metrics sampler or sharing classifier enabled) "+
			"but the resume requests %d workers; rerun with -workers 1 or unset", cfg.Workers)
	}
	// Cross-scenario resume refusal: the replay re-executes on the
	// requested machine, so a snapshot from a different machine could never
	// prove equal — refuse up front with the two scenarios named. An empty
	// recorded hash means the snapshot predates scenario stamping and is
	// treated as the default machine.
	snapHash := sn.Header.Spec.ScenarioHash
	if snapHash == "" {
		snapHash = scenario.Default().Hash()
	}
	if cfgHash := cfg.ScenarioHash(); cfgHash != snapHash {
		snapName := sn.Header.Spec.Scenario
		if snapName == "" {
			snapName = "origin"
		}
		return fmt.Errorf("experiments: resume: snapshot was captured on scenario %q (hash %s) "+
			"but the resume requests scenario %q (hash %s); rerun with the matching -scenario",
			snapName, snapHash, cfg.ScenarioSpec().Name, cfgHash)
	}
	return nil
}

// ResumeRun re-executes app from the start with its observers recording,
// proves every section but the header equal at sn's quiescent point, and
// runs to completion. A failed proof surfaces as a
// *snapshot.DivergenceError.
func (s Scale) ResumeRun(app workload.App, procs int, params workload.Params, sn *snapshot.Snapshot) (RunResult, error) {
	cfg := s.Machine(procs)
	cfg.Checkpoint.Spec = s.RunSpec(app, params)
	return s.ResumeConfig(app, cfg, params, sn)
}

// ResumeConfig is ResumeRun on a caller-prepared configuration — the tests
// use it to resume with capture still enabled, so a resumed run's remaining
// checkpoints can be compared against the uninterrupted run's.
func (s Scale) ResumeConfig(app workload.App, cfg core.Config, params workload.Params, sn *snapshot.Snapshot) (r RunResult, err error) {
	if verr := ValidateResume(&cfg, sn); verr != nil {
		return RunResult{}, verr
	}
	cfg.Checkpoint.Resume = sn
	var m *core.Machine
	keep := s.OnMachine
	s.OnMachine = func(label string, mm *core.Machine) {
		m = mm
		if keep != nil {
			keep(label, mm)
		}
	}
	defer func() {
		if p := recover(); p != nil {
			var div *snapshot.DivergenceError
			if e, ok := p.(error); ok && errors.As(e, &div) {
				r, err = RunResult{}, div
				return
			}
			panic(p)
		}
	}()
	r, err = s.RunConfig(app, cfg, params)
	if err == nil && m != nil && m.Resuming() {
		return RunResult{}, fmt.Errorf("experiments: resume: run finished before reaching quiescent point %d (t=%v) — wrong program or parameters",
			sn.Header.QuiesSeq, sn.Header.VirtualTime)
	}
	return r, err
}

// replayConfig reconstructs the machine configuration recorded in a
// snapshot's header — the exact topology, latencies, and mapping of the
// run that produced it — with capture disabled and the coherence checker
// armed for a confirming replay.
func replayConfig(sn *snapshot.Snapshot) (core.Config, error) {
	var cfg core.Config
	if err := json.Unmarshal(sn.Header.Config, &cfg); err != nil {
		return core.Config{}, fmt.Errorf("experiments: snapshot header config does not parse: %w", err)
	}
	cfg.Checkpoint = core.CheckpointConfig{}
	cfg.Check = true
	return cfg, nil
}

// replay runs app on cfg, treating the deliberate StopAtSeq panic as
// success and returning the machine for inspection.
func (s Scale) replay(app workload.App, cfg core.Config, params workload.Params) (m *core.Machine, err error) {
	keep := s.OnMachine
	s.OnMachine = func(label string, mm *core.Machine) {
		m = mm
		if keep != nil {
			keep(label, mm)
		}
	}
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok && errors.Is(e, core.ErrStopped) {
				err = nil
				return
			}
			panic(p)
		}
	}()
	// The run's own error (including the end-of-run audit) is irrelevant
	// here: the caller reads the checker's violation log directly, and a
	// faulted run is *expected* to fail its audit.
	_, runErr := s.RunConfig(app, cfg, params)
	if m == nil {
		return nil, runErr
	}
	return m, nil
}

// BisectReport is the outcome of BisectViolation: the first checkpoint
// whose serialized state fails the static coherence audit, the virtual-time
// window the fault must therefore live in, and the checker violations a
// confirming replay of that window detected.
type BisectReport struct {
	// FirstBad indexes the first failing snapshot; -1 when every snapshot
	// audits clean.
	FirstBad int
	// SeqStart/SeqEnd and WindowStart/WindowEnd bound the fault: the last
	// clean quiescent point (zero when the first snapshot already fails)
	// and the first failing one.
	SeqStart, SeqEnd       int64
	WindowStart, WindowEnd sim.Time
	// Audit holds the failing snapshot's static audit findings.
	Audit []snapshot.StateViolation
	// Violations holds the confirming replay's checker findings whose
	// detection time falls inside the window.
	Violations []*check.Violation
}

// BisectViolation binary-searches snaps (in capture order) for the first
// checkpoint whose serialized directory/cache state breaks coherence, then
// replays the run with the online checker up to that point to confirm and
// pinpoint the fault. The static audit verdict is monotone for persistent
// corruption — once a stale line exists it stays until the (never-arriving)
// invalidation — which is what makes binary search sound. Every snapshot
// is validated first, since the audit indexes its arrays by geometry.
func (s Scale) BisectViolation(app workload.App, procs int, params workload.Params, snaps []*snapshot.Snapshot) (*BisectReport, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("experiments: bisect: no snapshots")
	}
	for i, sn := range snaps {
		if err := sn.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: bisect: snapshot %d: %w", i, err)
		}
	}
	bad := func(i int) []snapshot.StateViolation { return snapshot.AuditState(snaps[i]) }
	lastAudit := bad(len(snaps) - 1)
	if len(lastAudit) == 0 {
		return &BisectReport{FirstBad: -1}, nil
	}
	lo, hi := 0, len(snaps)-1 // invariant: hi audits bad
	firstAudit := lastAudit
	for lo < hi {
		mid := (lo + hi) / 2
		if a := bad(mid); len(a) > 0 {
			hi, firstAudit = mid, a
		} else {
			lo = mid + 1
		}
	}
	rep := &BisectReport{
		FirstBad:  hi,
		SeqEnd:    snaps[hi].Header.QuiesSeq,
		WindowEnd: snaps[hi].Header.VirtualTime,
		Audit:     firstAudit,
	}
	if hi > 0 {
		rep.SeqStart = snaps[hi-1].Header.QuiesSeq
		rep.WindowStart = snaps[hi-1].Header.VirtualTime
	}
	// Replay on the exact configuration the failing snapshot's run recorded
	// in its header — topology, mapping, latencies — not on a freshly
	// scaled default machine, so checkpoints from any origin-run invocation
	// bisect faithfully.
	cfg, cerr := replayConfig(snaps[hi])
	if cerr != nil {
		return rep, cerr
	}
	if cfg.Procs != procs {
		return rep, fmt.Errorf("experiments: bisect: %d processors requested, snapshot ran %d", procs, cfg.Procs)
	}
	cfg.Checkpoint.StopAtSeq = rep.SeqEnd
	m, err := s.replay(app, cfg, params)
	if err != nil {
		return rep, fmt.Errorf("experiments: bisect: confirming replay: %w", err)
	}
	if ck := m.Checker(); ck != nil {
		for _, v := range ck.Violations() {
			if v.At > rep.WindowStart && v.At <= rep.WindowEnd {
				rep.Violations = append(rep.Violations, v)
			}
		}
	}
	return rep, nil
}
