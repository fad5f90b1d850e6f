package core

import (
	"origin2000/internal/cache"
	"origin2000/internal/sim"
)

// Proc is the application-facing view of one logical processor. Programs
// perform real Go computation and call these methods to charge virtual
// time: Compute for busy work, Read/Write for shared-memory references
// (which go through the simulated cache and coherence protocol), and the
// synchronization entry points used by internal/synchro.
type Proc struct {
	m      *Machine
	sp     *sim.Proc
	node   int // physical node (after process->processor mapping)
	router int
	cache  *cache.Cache

	prefetch  map[uint64]sim.Time // block -> fill completion time
	prefetchQ []uint64            // FIFO of outstanding prefetches
	phase     phaseState          // active phase label for attribution

	wakeScratch []*sim.Proc // reused by WakeAllAt
}

// ID returns the logical process id in [0, NumProcs).
func (p *Proc) ID() int { return p.sp.ID() }

// NumProcs returns the machine's processor count.
func (p *Proc) NumProcs() int { return p.m.cfg.Procs }

// Node returns the physical node (Hub) this process runs on.
func (p *Proc) Node() int { return p.node }

// Machine returns the machine this processor belongs to.
func (p *Proc) Machine() *Machine { return p.m }

// Now returns the processor's virtual time.
func (p *Proc) Now() sim.Time { return p.sp.Now() }

// Stats exposes the processor's event counters.
func (p *Proc) Stats() *sim.Counters { return &p.sp.Counters }

// Breakdown returns the processor's (busy, memory, sync) times.
func (p *Proc) Breakdown() (busy, memory, sync sim.Time) {
	return p.sp.Stat(sim.StatBusy), p.sp.Stat(sim.StatMemory), p.sp.Stat(sim.StatSync)
}

// Compute charges d of useful computation.
func (p *Proc) Compute(d sim.Time) {
	p.sp.Advance(d, sim.StatBusy)
	p.tickMetrics()
}

// ComputeCycles charges n processor cycles of useful computation.
func (p *Proc) ComputeCycles(n int64) {
	p.sp.Advance(p.m.Cycles(n), sim.StatBusy)
	p.tickMetrics()
}

// Yield gives the scheduler a chance to run another processor; long
// stretches of Go computation with no simulated references should call it.
func (p *Proc) Yield() { p.sp.Yield() }

// Read references addr (one load; the whole 128-byte block is fetched on a
// miss). Stall time is charged to the Memory bucket.
func (p *Proc) Read(addr uint64) { p.access(addr, false, sim.StatMemory) }

// Write references addr for writing, obtaining exclusive ownership.
func (p *Proc) Write(addr uint64) { p.access(addr, true, sim.StatMemory) }

// ReadBytes reads the n bytes starting at addr, touching each block once.
func (p *Proc) ReadBytes(addr uint64, n int) {
	for b := addr >> blockShift; b <= (addr+uint64(n)-1)>>blockShift; b++ {
		p.access(b<<blockShift, false, sim.StatMemory)
	}
}

// WriteBytes writes the n bytes starting at addr, touching each block once.
func (p *Proc) WriteBytes(addr uint64, n int) {
	for b := addr >> blockShift; b <= (addr+uint64(n)-1)>>blockShift; b++ {
		p.access(b<<blockShift, true, sim.StatMemory)
	}
}

// SyncRead is Read with the stall charged to the Sync bucket; the
// synchronization primitives use it for their own cache-line traffic.
func (p *Proc) SyncRead(addr uint64) { p.access(addr, false, sim.StatSync) }

// SyncWrite is Write charged to the Sync bucket.
func (p *Proc) SyncWrite(addr uint64) { p.access(addr, true, sim.StatSync) }

// FetchOp performs an uncached at-memory fetch&op on addr (the Origin's
// synchronization primitive, Section 6.3), charged to the Sync bucket.
func (p *Proc) FetchOp(addr uint64) { p.fetchOp(addr, sim.StatSync) }

// Block suspends the processor until another calls WakeAt (synchronization
// primitives only).
func (p *Proc) Block() { p.sp.Block() }

// WakeAt resumes q with its clock at least t; the waiting span is charged
// to q's Sync bucket by the primitive that coordinated the wait. Waking a
// processor of another shard is a cross-shard interaction, so WakeAt first
// enters the window's serialized commit phase (a no-op when the caller is
// already committing, which every synchro primitive is after its own
// GlobalSection).
func (p *Proc) WakeAt(q *Proc, t sim.Time) {
	p.sp.AwaitGlobal()
	p.sp.Wake(q.sp, t)
	p.sp.EndGlobal()
}

// WakeAllAt resumes every processor in qs with its clock at least t: the
// batched form of WakeAt for fan-out releases (a barrier's last arriver, a
// broadcast wakeup). It is schedule-identical to calling WakeAt for each q
// — the run queues order by (clock, id), so arrival order never matters —
// but pays one commit-phase entry and one bulk heap rebuild instead of
// len(qs) ordered inserts.
func (p *Proc) WakeAllAt(qs []*Proc, t sim.Time) {
	if len(qs) == 0 {
		return
	}
	sps := p.wakeScratch[:0]
	for _, q := range qs {
		sps = append(sps, q.sp)
	}
	p.wakeScratch = sps[:0]
	p.sp.AwaitGlobal()
	p.sp.WakeBatch(sps, t)
	p.sp.EndGlobal()
}

// ChargeSync records d of synchronization time without moving the clock
// (used after Block/WakeAt to attribute waiting time).
func (p *Proc) ChargeSync(d sim.Time) {
	p.sp.Charge(d, sim.StatSync)
	p.tickMetrics()
}

// SyncAdvanceTo moves the clock forward to t (no-op if already past),
// charging the elapsed span to the Sync bucket.
func (p *Proc) SyncAdvanceTo(t sim.Time) {
	p.sp.AdvanceTo(t, sim.StatSync)
	p.tickMetrics()
}

// CacheContains reports whether addr's block is in this processor's cache
// (diagnostics and tests).
func (p *Proc) CacheContains(addr uint64) bool {
	return p.cache.Peek(addr>>blockShift) != cache.Invalid
}
