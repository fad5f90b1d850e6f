package sim

// Counters accumulates event counts for one processor. The machine model
// increments these; they are not interpreted by the engine itself.
type Counters struct {
	Reads            int64 // shared-data load references
	Writes           int64 // shared-data store references
	Hits             int64 // cache hits
	LocalMisses      int64 // misses satisfied by the local node's memory
	RemoteClean      int64 // 2-hop misses satisfied by a remote home memory
	RemoteDirty      int64 // 3-hop misses requiring an intervention at a third node
	Upgrades         int64 // write hits to Shared lines (invalidation required)
	Invalidations    int64 // invalidation messages this processor caused
	Writebacks       int64 // dirty victims written back
	Prefetches       int64 // prefetches issued
	PrefetchHits     int64 // demand accesses fully or partly covered by a prefetch
	FetchOps         int64 // uncached at-memory fetch&op operations
	LockAcquires     int64
	BarrierWaits     int64
	PageMigrations   int64
	LocalStall       Time  // memory stall on local misses
	RemoteStall      Time  // memory stall on remote misses
	ContentionStall  Time  // portion of memory stall due to queueing
	SyncWait         Time  // portion of sync time spent waiting (imbalance)
	SyncOverhead     Time  // portion of sync time spent in the operation itself
	StolenTasks      int64 // tasks obtained by stealing (apps that steal)
	ExecutedTasks    int64 // tasks executed (apps with task queues)
	RemoteCapacity   int64 // capacity misses to remote homes (artifactual comm.)
	MigratedAccesses int64 // accesses that became local thanks to migration
}

// Add accumulates other into c.
func (c *Counters) Add(other *Counters) {
	c.Reads += other.Reads
	c.Writes += other.Writes
	c.Hits += other.Hits
	c.LocalMisses += other.LocalMisses
	c.RemoteClean += other.RemoteClean
	c.RemoteDirty += other.RemoteDirty
	c.Upgrades += other.Upgrades
	c.Invalidations += other.Invalidations
	c.Writebacks += other.Writebacks
	c.Prefetches += other.Prefetches
	c.PrefetchHits += other.PrefetchHits
	c.FetchOps += other.FetchOps
	c.LockAcquires += other.LockAcquires
	c.BarrierWaits += other.BarrierWaits
	c.PageMigrations += other.PageMigrations
	c.LocalStall += other.LocalStall
	c.RemoteStall += other.RemoteStall
	c.ContentionStall += other.ContentionStall
	c.SyncWait += other.SyncWait
	c.SyncOverhead += other.SyncOverhead
	c.StolenTasks += other.StolenTasks
	c.ExecutedTasks += other.ExecutedTasks
	c.RemoteCapacity += other.RemoteCapacity
	c.MigratedAccesses += other.MigratedAccesses
}

// Misses reports the total cache-miss count.
func (c *Counters) Misses() int64 { return c.LocalMisses + c.RemoteClean + c.RemoteDirty }

// Proc is one simulated processor. Application code receives a Proc and
// advances its virtual clock through the methods below. A Proc's methods
// must only be called from its own body, which the engine runs as a
// coroutine.
type Proc struct {
	id       int
	e        *Engine
	now      Time
	limit    Time // park when now exceeds this (window edge - 1)
	blocked  bool
	finished bool
	lane     int  // host lane that resumes this processor
	mode     int8 // modePhase1 or modeCommit
	global   int  // open AwaitGlobal sections; >0 pins the proc to the commit chain
	seq      int64
	stats    [numStats]Time

	// The coroutine running the body in the current Run (spawn): coNext
	// runs it until it parks or finishes, coStop unwinds it, and coYield
	// parks it from inside. All nil once it has finished, so a finished
	// body's closure is not kept alive.
	coNext  func() (struct{}, bool)
	coStop  func()
	coYield func(struct{}) bool

	// Counters holds machine-model event counts for this processor.
	Counters Counters
}

// ID returns the processor's id in [0, NumProcs).
func (p *Proc) ID() int { return p.id }

// Engine returns the engine this processor belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the processor's current virtual time.
func (p *Proc) Now() Time { return p.now }

// Shard returns the processor's shard index.
func (p *Proc) Shard() int { return int(p.e.shardOf[p.id]) }

// Seq returns the processor's most recent commit sequence number: its
// position in the global (virtual time, proc, seq) commit order the last
// time it entered the commit phase. Diagnostics only.
func (p *Proc) Seq() int64 { return p.seq }

// Stat returns the accumulated time charged to bucket k.
func (p *Proc) Stat(k StatKind) Time { return p.stats[k] }

// Total returns the sum of all buckets: the processor's accounted time.
func (p *Proc) Total() Time {
	var t Time
	for _, s := range p.stats {
		t += s
	}
	return t
}

// Advance moves the clock forward by d and charges d to bucket k,
// yielding to the scheduler if the window is exhausted.
func (p *Proc) Advance(d Time, k StatKind) {
	if d < 0 {
		panic("sim: negative advance")
	}
	p.now += d
	p.stats[k] += d
	if p.now > p.limit {
		p.windowPark()
	}
}

// AdvanceTo moves the clock forward to time t (a no-op if already past t)
// and charges the elapsed duration to bucket k.
func (p *Proc) AdvanceTo(t Time, k StatKind) {
	if t > p.now {
		p.Advance(t-p.now, k)
	}
}

// Charge records d in bucket k without moving the clock. Synchronization
// primitives use it to attribute time that was accounted while blocked.
func (p *Proc) Charge(d Time, k StatKind) {
	if d < 0 {
		panic("sim: negative charge")
	}
	p.stats[k] += d
}

// Yield voluntarily returns control to the scheduler if this processor has
// exhausted its window. Long computations that do not touch simulated
// memory should call it periodically.
func (p *Proc) Yield() {
	if p.now > p.limit {
		p.windowPark()
	}
}

// park suspends the coroutine, returning control to its lane's driver,
// until the driver resumes it. If the run was abandoned (deadlock or panic)
// the coroutine unwinds instead of leaking.
func (p *Proc) park() {
	if !p.coYield(struct{}{}) {
		panic(abandonRun{})
	}
}

// resume runs p's coroutine until it parks or finishes; a finished one
// drops its coroutine.
func (p *Proc) resume() {
	if _, ok := p.coNext(); !ok {
		p.coNext, p.coStop, p.coYield = nil, nil, nil
	}
}

// abandon unwinds p's coroutine if it has not finished (see release).
func (p *Proc) abandon() {
	if p.coStop != nil {
		p.coStop()
		p.coNext, p.coStop, p.coYield = nil, nil, nil
	}
}

// windowPark suspends this processor at the window edge: it hands its chain
// to the next processor and parks until a later window resumes it.
func (p *Proc) windowPark() {
	p.chainStep()
	p.park()
}

// chainStep continues this processor's chain after it stops running (window
// edge, Block, AwaitGlobal, or finish): it hands the lane to the next
// processor of its phase-1 shard heap or of the commit heap, or leaves the
// lane without a successor, which ends the chain and returns control to
// the coordinator. In phase 1 only processors of p's shard touch the shard
// heap, so chains from different shards never share mutable state. It first
// records where p waits in waitAt: every stop passes through here, so at a
// round open waitAt holds each processor's clock or notRunnable. Concurrent
// phase-1 chains write the entries of distinct processors.
func (p *Proc) chainStep() {
	e := p.e
	if p.blocked || p.finished {
		e.waitAt[p.id] = notRunnable
	} else {
		e.waitAt[p.id] = p.now
	}
	if e.runAhead {
		// Run-ahead fast path: hand control directly to the next-lowest
		// runnable clock of the lone active shard. A cross-shard wake
		// (raExit) invalidates the mode's precondition: drain the heap —
		// its processors stay runnable and the coordinator re-collects
		// them — and fall back to windowed scheduling.
		h := &e.shardHeaps[e.raShard]
		if e.raExit {
			*h = (*h)[:0]
			e.runAhead = false
			if e.prof != nil {
				e.prof.SerialEnd(SerialRunAhead)
			}
			return
		}
		if !p.blocked && !p.finished {
			h.push(p)
		}
		if len(*h) > 0 {
			e.raHandoffs++
			e.raResume()
			return
		}
		e.runAhead = false
		if e.prof != nil {
			e.prof.SerialEnd(SerialRunAhead)
		}
		return
	}
	if p.mode == modeCommit {
		if len(e.commit) > 0 {
			e.commitRuns++
			q := e.commit.pop()
			q.mode = modeCommit
			q.limit = e.windowEnd - 1
			e.handoff(q, serialLane)
			return
		}
		// The commit chain is dry: the serial span that began at its
		// dispatch ends here, whichever processor carries the last commit.
		if e.prof != nil {
			e.prof.SerialEnd(SerialCommit)
		}
		if e.singleChain() {
			e.turnover()
		}
		return
	}
	h := &e.shardHeaps[e.shardOf[p.id]]
	if len(*h) > 0 {
		q := h.pop()
		q.mode = modePhase1
		q.limit = e.windowEnd - 1
		e.handoff(q, p.lane)
		return
	}
	// This chain is dry: claim the next undispatched shard's chain and keep
	// executing on this lane (work stealing). The claim order is shard
	// order regardless of which chains claim, so the schedule is
	// unchanged; only idle time moves.
	if e.prof != nil {
		e.prof.ChainEnd(p.lane)
	}
	if e.startNextChain(p.lane, true) {
		return
	}
	if e.singleChain() {
		// Only one chain ever runs at a time, so when it runs dry this
		// processor can continue the schedule itself — the phase barrier
		// and the commit chain, then the next round — instead of
		// round-tripping through the coordinator. The order is exactly the
		// coordinator's (shard-major staged merge, (time, id) commits), so
		// the schedule is unchanged.
		e.mergeStaged()
		if len(e.commit) > 0 {
			e.startCommit()
		} else {
			e.turnover()
		}
	}
}

// AwaitGlobal serializes this processor into the commit phase before an
// operation that may touch another shard's state. In phase 1 the processor
// suspends at its current clock and resumes — with the clock unchanged — in
// the window's serial commit phase, in global (virtual time, proc) order.
// In the commit phase (and in the run-ahead fast path, where the whole
// engine is one serial chain) it is already serialized: it continues
// immediately while it precedes every queued commit, or re-queues itself
// to keep commits in (virtual time, proc) order. With a single shard
// nothing is ever cross-shard, but the call still imposes the same commit
// schedule, so results are identical to a sharded run.
//
// The section stays open until the matching EndGlobal: across window
// edges and Block/Wake cycles in between, the processor is rescheduled on
// the commit chain — never on a phase-1 shard chain — so the cross-shard
// operation can span windows without ever running concurrently with
// another shard. Sections nest (a cross-shard access inside a barrier
// protocol opens a second one); the processor returns to phase-1
// scheduling when the outermost section closes.
// The return value reports whether the processor actually suspended: false
// means no other processor can have run between the call and the return,
// so simulated state the caller probed just before is still current. The
// value is a pure function of the deterministic schedule, so decisions
// keyed on it are identical across engines and worker counts.
func (p *Proc) AwaitGlobal() bool {
	e := p.e
	p.global++
	if p.mode == modeCommit {
		if len(e.commit) == 0 {
			return false
		}
		if m := e.commit[0]; p.now < m.now || (p.now == m.now && p.id < m.id) {
			return false
		}
		// A queued commit precedes us: hand the chain to it and wait our
		// turn. (The new minimum cannot be p: the old minimum beat it.)
		e.commit.push(p)
		e.commitRuns++
		q := e.commit.pop()
		q.mode = modeCommit
		q.limit = e.windowEnd - 1
		e.handoff(q, serialLane)
		p.park()
		return true
	}
	// Phase 1: stage for this window's commit phase and continue the
	// shard chain. The coordinator merges staged processors into the
	// commit heap at the phase barrier.
	s := e.shardOf[p.id]
	e.staged[s] = append(e.staged[s], p)
	p.chainStep()
	p.park()
	p.mode = modeCommit
	return true
}

// EndGlobal closes the section opened by the matching AwaitGlobal. The
// processor keeps executing serially until the window edge (the schedule is
// a function of virtual time only, so this costs nothing in determinism);
// from the next window on it is scheduled on its shard's phase-1 chain
// again.
func (p *Proc) EndGlobal() {
	if p.global <= 0 {
		panic("sim: EndGlobal without a matching AwaitGlobal")
	}
	p.global--
}

// Block suspends this processor until another processor calls Wake on it.
// The caller is responsible for charging the waiting time (see Wake).
func (p *Proc) Block() {
	p.blocked = true
	p.chainStep()
	p.park()
}

// Wake makes q runnable again with its clock advanced to at least t. The
// time q spent blocked is not charged automatically; the waker or the
// wakee charges it to the appropriate bucket.
//
// In the commit phase (where all synchronization runs — see AwaitGlobal) a
// wake inside the current window queues q for commit in (virtual time,
// proc) order; a later wake leaves q parked for its window. In phase 1
// only same-shard wakes are legal. In the run-ahead fast path a same-shard
// wake joins the run-ahead heap (bounding the waker's run-ahead by the
// wakee's clock); a cross-shard wake ends the mode — the waker yields at
// its next advance and the engine returns to windowed scheduling.
func (p *Proc) Wake(q *Proc, t Time) {
	if !q.blocked {
		panic("sim: Wake on a processor that is not blocked")
	}
	if q.now < t {
		q.now = t
	}
	q.blocked = false
	e := p.e
	e.waitAt[q.id] = q.now
	if e.runAhead {
		if e.shardOf[q.id] != e.raShard {
			e.raExit = true
			if p.limit > p.now-1 {
				p.limit = p.now - 1
			}
			return
		}
		e.shardHeaps[e.raShard].push(q)
		if l := q.now + e.window - 1; l < p.limit {
			p.limit = l
		}
		return
	}
	if p.mode == modeCommit {
		if q.now < e.windowEnd {
			e.commit.push(q)
		}
		return
	}
	s := e.shardOf[p.id]
	if e.shardOf[q.id] != s {
		panic("sim: cross-shard Wake outside a global section")
	}
	if q.now < e.windowEnd {
		e.shardHeaps[s].push(q)
	}
}

// WakeBatch wakes every processor in qs with its clock advanced to at
// least t. It is semantically identical to calling Wake(q, t) for each q
// in turn — the run queues are (clock, id) heaps, so arrival order never
// affects the schedule — but rebuilds the destination heap once (a bulk
// append and one O(n) heapify) instead of paying k ordered inserts: the
// batched commit-phase wakeup a barrier release fans out. It may only be
// called from the serialized commit chain or the run-ahead fast path,
// which is where every synchronization primitive runs (see AwaitGlobal).
func (p *Proc) WakeBatch(qs []*Proc, t Time) {
	if len(qs) == 0 {
		return
	}
	e := p.e
	if !e.runAhead && p.mode != modeCommit {
		panic("sim: WakeBatch outside the commit phase")
	}
	for _, q := range qs {
		if !q.blocked {
			panic("sim: Wake on a processor that is not blocked")
		}
		if q.now < t {
			q.now = t
		}
		q.blocked = false
		e.waitAt[q.id] = q.now
	}
	if e.runAhead {
		h := &e.shardHeaps[e.raShard]
		for _, q := range qs {
			if e.shardOf[q.id] != e.raShard {
				e.raExit = true
				continue
			}
			h.grow(q)
		}
		h.reinit()
		if e.raExit {
			if p.limit > p.now-1 {
				p.limit = p.now - 1
			}
		} else if len(*h) > 0 {
			if l := (*h)[0].now + e.window - 1; l < p.limit {
				p.limit = l
			}
		}
		return
	}
	grown := false
	for _, q := range qs {
		if q.now < e.windowEnd {
			e.commit.grow(q)
			grown = true
		}
	}
	if grown {
		e.commit.reinit()
	}
}

// Blocked reports whether q is currently suspended in Block.
func (p *Proc) Blocked() bool { return p.blocked }
