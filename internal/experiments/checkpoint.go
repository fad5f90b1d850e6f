package experiments

import (
	"errors"
	"fmt"

	"origin2000/internal/core"
	"origin2000/internal/scenario"
	"origin2000/internal/sim"
	"origin2000/internal/snapshot"
	"origin2000/internal/synchro"
	"origin2000/internal/workload"
)

// Checkpoint drivers: capture a run's originckpt snapshots and resume from
// one with the resume-equivalence proof. See internal/snapshot and
// DESIGN.md §13.

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
// resume it, before any replay work happens. The configuration must build
// a machine: a checkpoint from outside may name more processors than the
// scenario's directory format tracks, which core.New would refuse with a
// panic. The processor count must match, and so must the observers: the
// replay rebuilds each enabled observer's section and proves its digest
// equal, so a configuration that enables an observer the snapshot has no
// section for, or the reverse, could never resume. A snapshot whose run
// had its worker count forced to
// one by an observer may not be resumed with more workers requested — the
// request could not be honored, so it errors loudly instead.
func ValidateResume(cfg *core.Config, sn *snapshot.Snapshot) error {
	if err := sn.Validate(); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("experiments: resume: %w", err)
	}
	if cfg.Procs != sn.Header.Procs {
		return fmt.Errorf("experiments: resume: configuration has %d processors, snapshot has %d",
			cfg.Procs, sn.Header.Procs)
	}
	for _, o := range []struct {
		name, section string
		on            bool
	}{
		{"checker", "checker", cfg.Check},
		{"tracer", "tracer", cfg.Trace.Enabled},
		{"metrics sampler", "metrics", cfg.Metrics.Enabled},
		{"sharing classifier", "sharing", cfg.Sharing.Enabled},
	} {
		if present := sn.Has(o.section); o.on != present {
			return fmt.Errorf("experiments: resume: the configuration has the %s enabled=%v but the snapshot's %q section present=%v; "+
				"resume with the observers the snapshot was captured with", o.name, o.on, o.section, present)
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
// proves that every section but the header digests alike at sn's quiescent
// point, and runs to completion. A failed proof surfaces as a
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
