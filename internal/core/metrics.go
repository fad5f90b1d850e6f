package core

import (
	"origin2000/internal/critpath"
	"origin2000/internal/metrics"
	"origin2000/internal/sim"
)

// Metrics glue: the machine owns an optional *metrics.Sampler (built when
// Config.Metrics.Enabled) and every clock-advancing site in the model calls
// tickMetrics, which is a nil check when sampling is off. The sampler only
// reads virtual clocks and cumulative counters — it never advances either —
// so enabling it perturbs simulated time by zero, and because the engine
// serializes processor goroutines deterministically, the recorded series
// are bit-identical across runs and GOMAXPROCS settings.

// Sampler exposes the metrics sampler (nil unless Config.Metrics.Enabled).
func (m *Machine) Sampler() *metrics.Sampler { return m.sampler }

// tickMetrics checks whether this processor's clock has crossed a sampling
// boundary and records the due samples. It is called after every operation
// that advances the virtual clock (miss, fetch&op, compute, sync wait).
func (p *Proc) tickMetrics() {
	s := p.m.sampler
	if s == nil {
		return
	}
	if now := p.sp.Now(); s.Due(p.ID(), now) {
		p.m.recordSamples(p, now)
	}
}

// recordSamples is the slow path of tickMetrics: emit the per-processor
// and/or machine-wide samples whose grid boundaries were crossed.
func (m *Machine) recordSamples(p *Proc, now sim.Time) {
	s := m.sampler
	if s.ProcDue(p.ID(), now) {
		s.RecordProc(p.ID(), m.procSample(p, now))
	}
	if s.MachineDue(now) {
		s.RecordMachine(m.machineSample(now))
	}
}

// procSample snapshots one processor's cumulative state.
func (m *Machine) procSample(p *Proc, now sim.Time) metrics.ProcSample {
	c := &p.sp.Counters
	return metrics.ProcSample{
		At:              now,
		Busy:            p.sp.Stat(sim.StatBusy),
		Memory:          p.sp.Stat(sim.StatMemory),
		Sync:            p.sp.Stat(sim.StatSync),
		LocalStall:      c.LocalStall,
		RemoteStall:     c.RemoteStall,
		ContentionStall: c.ContentionStall,
		SyncWait:        c.SyncWait,
		SyncOverhead:    c.SyncOverhead,
		Hits:            c.Hits,
		LocalMisses:     c.LocalMisses,
		RemoteClean:     c.RemoteClean,
		RemoteDirty:     c.RemoteDirty,
		Upgrades:        c.Upgrades,
	}
}

// machineSample snapshots the machine-wide state: aggregate breakdowns and
// counters over all processors, the directory state mix, and the per-node
// resource timelines.
func (m *Machine) machineSample(now sim.Time) metrics.MachineSample {
	ms := metrics.MachineSample{At: now}
	for _, q := range m.procs {
		sp := q.sp
		ms.Busy += sp.Stat(sim.StatBusy)
		ms.Memory += sp.Stat(sim.StatMemory)
		ms.Sync += sp.Stat(sim.StatSync)
		c := &sp.Counters
		ms.LocalMisses += c.LocalMisses
		ms.RemoteClean += c.RemoteClean
		ms.RemoteDirty += c.RemoteDirty
		ms.Upgrades += c.Upgrades
		ms.Invalidations += c.Invalidations
		ms.Writebacks += c.Writebacks
		ms.PageMigrations += c.PageMigrations
	}
	ms.DirShared, ms.DirExclusive = m.dir.StateCounts()
	ms.HubQueued = make([]sim.Time, len(m.hubs))
	ms.HubBusy = make([]sim.Time, len(m.hubs))
	ms.HubBacklog = make([]sim.Time, len(m.hubs))
	ms.MemQueued = make([]sim.Time, len(m.mems))
	ms.MemBacklog = make([]sim.Time, len(m.mems))
	for i := range m.hubs {
		ms.HubQueued[i] = m.hubs[i].Queued()
		ms.HubBusy[i] = m.hubs[i].Busy()
		ms.HubBacklog[i] = m.hubs[i].Backlog(now)
		ms.MemQueued[i] = m.mems[i].Queued()
		ms.MemBacklog[i] = m.mems[i].Backlog(now)
	}
	ms.RouterQueued = make([]sim.Time, len(m.routers))
	for i := range m.routers {
		ms.RouterQueued[i] = m.routers[i].Queued()
	}
	return ms
}

// MarkEpoch records a phase boundary — a global barrier release — with the
// tracer, the metrics sampler, and the critical-path recorder (no-op when
// all are off). The synchronization primitives call it exactly once per
// global release, so runs of the same program produce alignable epoch
// sequences.
func (p *Proc) MarkEpoch(at sim.Time) {
	if tr := p.m.tracer; tr != nil {
		tr.EpochMark(at)
	}
	if s := p.m.sampler; s != nil {
		s.EpochMark(at)
	}
	if r := p.m.critrec; r != nil {
		r.Release(at)
	}
}

// MarkArrival records this processor's arrival at a full-machine barrier
// with the critical-path recorder (no-op when Config.CritPath is off). The
// barrier protocol calls it for every arriver — before the release's
// MarkEpoch — from inside the serialized global section, so the recorder
// sees the complete arrival set, race-free, in virtual-time order.
func (p *Proc) MarkArrival() {
	r := p.m.critrec
	if r == nil {
		return
	}
	sp := p.sp
	c := &sp.Counters
	r.Arrive(p.ID(), critpath.Snap{
		At:           sp.Now(),
		Busy:         sp.Stat(sim.StatBusy),
		Memory:       sp.Stat(sim.StatMemory),
		Sync:         sp.Stat(sim.StatSync),
		SyncWait:     c.SyncWait,
		SyncOverhead: c.SyncOverhead,
		Contention:   c.ContentionStall,
		LocalStall:   c.LocalStall,
		RemoteStall:  c.RemoteStall,
	})
}
