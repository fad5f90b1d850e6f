package core

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"

	"origin2000/internal/cache"
	"origin2000/internal/sim"
	"origin2000/internal/snapshot"
)

// Checkpoint capture and replay-based resume (DESIGN.md §13).
//
// The engine reports every round boundary through its quiescent hook; at
// boundaries where no processor has a global section open the machine's
// entire observable state is a pure function of the deterministic schedule
// prefix, so it can be digested (capture) or compared against a prior
// capture's digests (resume proof). Goroutine stacks are not serializable,
// so resume re-executes the prefix with the run's observers built and
// recording, as on any run, and at the recorded quiescent point proves
// that every section but the header digests alike: the simulation state
// and each observer's state. Nothing is written back from the snapshot.

// EffectiveWorkers reports the host-worker count a normalized configuration
// runs with, and whether an observer forced it down to one (the checker,
// the metrics sampler and the sharing classifier read cross-shard state
// from their event hooks, so any of them forces a single worker; see
// setupShards).
func EffectiveWorkers(cfg *Config) (workers int, forced bool) {
	workers = 1
	if cfg.Engine == "parallel" {
		workers = cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	if cfg.Check || cfg.Metrics.Enabled || cfg.Sharing.Enabled {
		return 1, true
	}
	return workers, false
}

// syncSnapReg is one synchronization primitive's registered state provider.
// Primitives are constructed by deterministic program code, so registration
// order — and therefore the syncs section — is deterministic.
type syncSnapReg struct {
	base uint64
	kind string
	fn   func() any
}

// RegisterStateSnap registers a host-state provider for a synchronization
// primitive, keyed by the primitive's identifying simulated address. The
// returned state must be JSON-serializable and deterministic; it is
// digested into every snapshot's syncs section as a proof obligation of
// resume (replay rebuilds the primitives themselves).
func (m *Machine) RegisterStateSnap(base uint64, kind string, fn func() any) {
	m.syncSnaps = append(m.syncSnaps, syncSnapReg{base: base, kind: kind, fn: fn})
}

// ckptState is the per-machine checkpoint/resume state machine driven by
// the engine's quiescent hook.
type ckptState struct {
	every   sim.Time
	next    sim.Time
	dir     string
	sink    func(*snapshot.Snapshot) error
	resume  *snapshot.Snapshot
	written []string
	count   int
}

// initCheckpoint arms the quiescent hook when the configuration asks for
// capture or resume.
func (m *Machine) initCheckpoint() {
	ck := &m.cfg.Checkpoint
	if ck.Every <= 0 && ck.Resume == nil {
		return
	}
	// Stamp the machine's scenario into the recorded spec so resume can
	// refuse a different machine. Stamping applies on resume too — the
	// drivers validated hash equality first, and captures continuing past
	// the resume point must byte-match the uninterrupted run's. (The
	// resume proof skips the header, so snapshots written before scenario
	// fields existed still prove equal.)
	if ck.Spec.ScenarioHash == "" {
		ck.Spec.ScenarioHash = m.cfg.ScenarioHash()
		if ck.Spec.Scenario == "" {
			ck.Spec.Scenario = m.cfg.ScenarioSpec().Name
		}
	}
	m.ckpt = &ckptState{
		every:  ck.Every,
		next:   ck.Every,
		dir:    ck.Dir,
		sink:   ck.Sink,
		resume: ck.Resume,
	}
	m.eng.SetQuiescentHook(m.onQuiescent)
}

// Checkpoints returns the paths of the snapshot files written so far (when
// Checkpoint.Dir is set), in capture order.
func (m *Machine) Checkpoints() []string {
	if m.ckpt == nil {
		return nil
	}
	return m.ckpt.written
}

// Resuming reports whether the machine is still replaying toward its
// resume point; a run that ends while it is never reached that point.
func (m *Machine) Resuming() bool { return m.ckpt != nil && m.ckpt.resume != nil }

// onQuiescent is the engine's quiescent hook: it drives the resume proof
// and periodic capture. It runs on the scheduling boundary, so any failure
// must leave via panic; the engine propagates the value out of Run and the
// resume driver recovers a snapshot.DivergenceError.
func (m *Machine) onQuiescent(seq int64, minNow sim.Time, quiet bool) {
	ck := m.ckpt
	if rs := ck.resume; rs != nil {
		target := rs.Header.QuiesSeq
		if seq < target {
			return
		}
		if seq > target {
			panic(&snapshot.DivergenceError{Section: "header", Seq: seq, At: minNow,
				Msg: fmt.Sprintf("replay skipped past quiescent point %d", target)})
		}
		if !quiet {
			panic(&snapshot.DivergenceError{Section: "header", Seq: seq, At: minNow,
				Msg: "replay reached the recorded quiescent point with a global section open"})
		}
		live := m.capture(seq, minNow)
		if sec, ok := snapshot.ProveEqual(live, rs); !ok {
			panic(&snapshot.DivergenceError{Section: sec, Seq: seq, At: minNow,
				Msg: "replayed state does not match the snapshot"})
		}
		ck.resume = nil
		if ck.every > 0 {
			// Continue the capture grid exactly where the recorded run's
			// would have been, so a resumed run emits the same remaining
			// checkpoints as an uninterrupted one.
			for ck.next <= minNow {
				ck.next += ck.every
			}
		}
		return
	}
	if ck.every <= 0 || !quiet || minNow < ck.next {
		return
	}
	s := m.capture(seq, minNow)
	if err := m.emit(s); err != nil {
		panic(fmt.Errorf("core: checkpoint at t=%v: %w", minNow, err))
	}
	for ck.next <= minNow {
		ck.next += ck.every
	}
}

// capture digests the machine at a quiescent point: the header, then each
// section as sections takes it, so no capture holds more than one
// section's encoding.
func (m *Machine) capture(seq int64, minNow sim.Time) *snapshot.Snapshot {
	workers, forced := EffectiveWorkers(&m.cfg)
	s := &snapshot.Snapshot{
		Header: snapshot.Header{
			Version:       snapshot.Version,
			Procs:         m.cfg.Procs,
			Engine:        m.cfg.Engine,
			Workers:       workers,
			WorkersForced: forced,
			QuiesSeq:      seq,
			VirtualTime:   minNow,
			Spec:          m.cfg.Checkpoint.Spec,
		},
	}
	if cfgJSON, err := json.Marshal(&m.cfg); err == nil {
		s.Header.Config = cfgJSON
	}
	m.sections(func(name string, v any) {
		if err := s.Add(name, v); err != nil {
			panic(fmt.Errorf("core: checkpoint: %w", err))
		}
	})
	return s
}

// sections passes every section of the machine's state to add, in
// canonical order, observers last. Everything that can influence the rest
// of the run — or that an observer has accumulated — is included;
// host-side state with no observable effect (the allocation list
// ArrayStats folds over, which replay rebuilds) is deliberately not.
func (m *Machine) sections(add func(name string, v any)) {
	add("engine", m.eng.Snap())
	procs := make([]snapshot.ProcSnap, len(m.procs))
	caches := make([]cache.Snap, len(m.procs))
	for i, p := range m.procs {
		procs[i], caches[i] = p.snapState(), p.cache.Snap()
	}
	add("procs", procs)
	add("caches", caches)
	add("directories", m.dir.Snaps())
	add("mempolicy", m.pages.Snap())
	add("resources", snapshot.ResourcesSnap{
		Hubs:    resourceSnaps(m.hubs),
		Mems:    resourceSnaps(m.mems),
		Routers: resourceSnaps(m.routers),
		Metas:   resourceSnaps(m.metas),
	})
	add("memory", snapshot.MemorySnap{NextAddr: m.nextAddr, NodePages: m.nodePages})
	var syncs []snapshot.SyncRecord
	for _, reg := range m.syncSnaps {
		state, err := json.Marshal(reg.fn())
		if err != nil {
			panic(fmt.Errorf("core: checkpoint: sync %q at %#x: %w", reg.kind, reg.base, err))
		}
		syncs = append(syncs, snapshot.SyncRecord{Base: reg.base, Kind: reg.kind, State: state})
	}
	add("syncs", syncs)
	if m.check != nil {
		add("checker", m.check.Snap())
	}
	if m.tracer != nil {
		add("tracer", m.tracer.Snap())
	}
	if m.sampler != nil {
		add("metrics", m.sampler.Snap())
	}
	if m.sharing != nil {
		add("sharing", m.sharing.Snap())
	}
}

// snapState captures one processor's machine-level state (the scheduling
// state lives in the engine section).
func (p *Proc) snapState() snapshot.ProcSnap {
	ps := snapshot.ProcSnap{
		Phase: p.phase.name,
		PhaseMark: snapshot.Breakdown{
			Busy:   p.phase.snap.Busy,
			Memory: p.phase.snap.Memory,
			Sync:   p.phase.snap.Sync,
		},
	}
	if len(p.prefetch) > 0 {
		ps.Prefetch = make([]snapshot.PrefetchEntry, 0, len(p.prefetch))
		for blk, ready := range p.prefetch {
			ps.Prefetch = append(ps.Prefetch, snapshot.PrefetchEntry{Block: blk, Ready: ready})
		}
		sort.Slice(ps.Prefetch, func(i, j int) bool { return ps.Prefetch[i].Block < ps.Prefetch[j].Block })
	}
	if len(p.prefetchQ) > 0 {
		ps.PrefetchQ = append([]uint64(nil), p.prefetchQ...)
	}
	if len(p.phase.acc) > 0 {
		names := make([]string, 0, len(p.phase.acc))
		for name := range p.phase.acc {
			names = append(names, name)
		}
		sort.Strings(names)
		ps.PhaseAcc = make([]snapshot.PhaseTotal, 0, len(names))
		for _, name := range names {
			b := p.phase.acc[name]
			ps.PhaseAcc = append(ps.PhaseAcc, snapshot.PhaseTotal{
				Name:      name,
				Breakdown: snapshot.Breakdown{Busy: b.Busy, Memory: b.Memory, Sync: b.Sync},
			})
		}
	}
	return ps
}

func resourceSnaps(rs []sim.Resource) []sim.ResourceSnap {
	if len(rs) == 0 {
		return nil
	}
	out := make([]sim.ResourceSnap, len(rs))
	for i := range rs {
		out[i] = rs[i].Snap()
	}
	return out
}

// emit writes a captured snapshot to the configured destinations.
func (m *Machine) emit(s *snapshot.Snapshot) error {
	ck := m.ckpt
	if ck.dir != "" {
		path := filepath.Join(ck.dir, fmt.Sprintf("ckpt-%06d.originckpt", ck.count))
		if err := s.WriteFile(path); err != nil {
			return err
		}
		ck.written = append(ck.written, path)
	}
	ck.count++
	if ck.sink != nil {
		return ck.sink(s)
	}
	return nil
}
