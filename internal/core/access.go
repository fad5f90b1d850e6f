package core

import (
	"origin2000/internal/cache"
	"origin2000/internal/memclass"
	"origin2000/internal/mempolicy"
	"origin2000/internal/sharing"
	"origin2000/internal/sim"
	"origin2000/internal/topology"
	"origin2000/internal/trace"
)

// access is the demand load/store path: cache lookup, then on a miss the
// full directory-protocol transaction with Hub/memory/router occupancies.
func (p *Proc) access(addr uint64, write bool, kind sim.StatKind) {
	c := &p.sp.Counters
	if write {
		c.Writes++
	} else {
		c.Reads++
	}
	block := addr >> blockShift
	st := p.cache.Lookup(block)
	if st == cache.Modified || (st == cache.Shared && !write) {
		c.Hits++
		if ck := p.m.check; ck != nil {
			ck.OnHit(p.ID(), block, write, p.sp.Now())
		}
		if sh := p.m.sharing; sh != nil {
			sh.OnHit(p.ID(), block, sharing.WordOf(addr), write)
		}
		// A prefetched line may still be in flight; wait out the rest.
		if len(p.prefetch) > 0 {
			if ready, ok := p.prefetch[block]; ok {
				delete(p.prefetch, block)
				c.PrefetchHits++
				if ready > p.sp.Now() {
					p.sp.Advance(ready-p.sp.Now(), kind)
				}
			}
		}
		return
	}
	// Miss or upgrade. Decide whether the whole transaction stays inside
	// this processor's shard; if not, suspend until the window's serialized
	// commit phase and hold the section open until the transaction is done
	// (it may span window edges). A commit that ran while we waited may
	// have invalidated our Shared copy, so re-probe the cache afterwards —
	// an upgrade can demote to a full miss, never the reverse (only this
	// processor fills this cache, so Invalid lines stay Invalid across the
	// wait). When AwaitGlobal reports that nothing ran in between, the
	// first probe is still current and the re-probe is skipped.
	page := mempolicy.PageOf(addr)
	if !p.shardLocal(block, page, write, st == cache.Shared) {
		if p.sp.AwaitGlobal() {
			st = p.cache.Lookup(block)
		}
		defer p.sp.EndGlobal()
	}
	if st == cache.Shared && write {
		p.upgrade(block, addr, kind)
		return
	}
	p.demandMiss(block, addr, write, kind)
}

// missKind is the tracer's event kind for each demand-miss class.
var missKind = [...]trace.Kind{
	memclass.Local:       trace.EvMissLocal,
	memclass.RemoteClean: trace.EvMissRemoteClean,
	memclass.RemoteDirty: trace.EvMissRemoteDirty,
}

// transaction walks one coherence transaction through the machine,
// returning its completion time. It performs the directory transition and
// remote cache state changes as side effects, but does not touch the
// requester's cache or clock — demand misses and prefetches share it.
func (p *Proc) transaction(block uint64, home int, write bool) (complete sim.Time, dirty bool, queued sim.Time) {
	m := p.m
	lat := &m.cfg.Lat
	tr := m.tracer
	t := p.sp.Now() + lat.ProcOverhead

	acq := func(r *sim.Resource, occ sim.Time, qc trace.QueueClass, unit int) {
		start := r.Acquire(t, occ)
		if tr != nil && start > t {
			tr.QueueDelay(p.ID(), t, start-t, qc, unit)
		}
		queued += start - t
		t = start
	}

	// Outgoing through the local Hub.
	acq(&m.hubs[p.node], lat.HubOcc, trace.QHub, p.node)
	t += lat.HubTime

	remote := home != p.node
	homeRouter := m.routerOfNode(home)
	var fwd topology.Route
	if remote {
		t += lat.RemoteExtra
		fwd = m.fabric.Route(p.router, homeRouter)
		acq(&m.routers[p.router], lat.RouterOcc, trace.QRouter, p.router)
		t += sim.Time(fwd.Hops) * lat.RouterTime
		if fwd.Meta >= 0 {
			acq(&m.metas[fwd.Meta], lat.MetaOcc, trace.QMeta, fwd.Meta)
			t += lat.MetaExtra
		}
		acq(&m.routers[homeRouter], lat.RouterOcc, trace.QRouter, homeRouter)
		acq(&m.hubs[home], lat.HubOcc, trace.QHub, home)
		t += lat.HubTime
	}

	// Home memory + directory lookup.
	acq(&m.mems[home], lat.MemOcc, trace.QMem, home)
	t += lat.MemTime

	var invalidate, extra []int
	var owner = -1
	if write {
		res := m.dir.Write(block, p.ID())
		invalidate = res.Invalidate
		extra = res.Extra
		if res.Dirty {
			dirty = true
			owner = res.Owner
		}
		if ck := m.check; ck != nil {
			ck.OnDirWrite(block, p.ID(), res, p.sp.Now())
		}
	} else {
		res := m.dir.Read(block, p.ID())
		if res.Dirty {
			dirty = true
			owner = res.Owner
		}
		if ck := m.check; ck != nil {
			ck.OnDirRead(block, p.ID(), res, p.sp.Now())
		}
	}

	if dirty {
		// 3-hop: home forwards an intervention to the owner, whose cache
		// supplies the data directly to the requester; a sharing
		// writeback refreshes the home memory off the critical path.
		op := m.procs[owner]
		if tr != nil {
			tr.Intervention(owner, p.sp.Now(), block, pageOfBlock(block), p.ID(), write)
		}
		f2 := m.fabric.Route(homeRouter, op.router)
		t += sim.Time(f2.Hops) * lat.RouterTime
		if f2.Meta >= 0 {
			acq(&m.metas[f2.Meta], lat.MetaOcc, trace.QMeta, f2.Meta)
			t += lat.MetaExtra
		}
		acq(&m.hubs[op.node], lat.HubOcc, trace.QHub, op.node)
		t += lat.HubTime + lat.CacheResponse
		if write {
			op.cache.Invalidate(block)
			if ck := m.check; ck != nil {
				ck.OnInvalidate(owner, block, p.sp.Now())
			}
			if sh := m.sharing; sh != nil {
				sh.OnInvalidate(owner, block)
			}
		} else {
			op.cache.Downgrade(block)
			if ck := m.check; ck != nil {
				ck.OnDowngrade(owner, block, p.sp.Now())
			}
		}
		m.mems[home].Acquire(t, lat.WritebackOcc)
		f3 := m.fabric.Route(op.router, p.router)
		t += sim.Time(f3.Hops) * lat.RouterTime
		if f3.Meta >= 0 {
			acq(&m.metas[f3.Meta], lat.MetaOcc, trace.QMeta, f3.Meta)
			t += lat.MetaExtra
		}
		t += lat.HubTime // into the requesting node
	} else {
		// Data comes from the home memory.
		if remote {
			t += lat.HubTime // home hub, outgoing reply
			t += sim.Time(fwd.Hops) * lat.RouterTime
			if fwd.Meta >= 0 {
				t += lat.MetaExtra
			}
		}
		t += lat.HubTime // back through the local (or only) hub
	}

	// Write-induced invalidations: the requester waits for all acks,
	// which overlap with the data transfer.
	if len(invalidate) > 0 || len(extra) > 0 {
		ackT := t
		// Home and requester routers are loop constants, so the two routes
		// depend only on the sharer's router. Sharers cluster on few
		// routers (one, for well-placed data), so a single-entry memo
		// removes almost every Route call from the fan-out.
		memoRouter := -1
		var memoOut, memoBack topology.Route
		for _, s := range invalidate {
			sp := m.procs[s]
			sp.cache.Invalidate(block)
			delete(sp.prefetch, block)
			if ck := m.check; ck != nil {
				ck.OnInvalidate(s, block, p.sp.Now())
			}
			if sh := m.sharing; sh != nil {
				sh.OnInvalidate(s, block)
			}
			if tr != nil {
				tr.InvalRecv(s, p.sp.Now(), block, pageOfBlock(block), p.ID())
			}
			m.hubs[home].Acquire(t, lat.InvalOcc)
			if sp.router != memoRouter {
				memoRouter = sp.router
				memoOut = m.fabric.Route(homeRouter, sp.router)
				memoBack = m.fabric.Route(sp.router, p.router)
			}
			arrive := t + sim.Time(memoOut.Hops)*lat.RouterTime + lat.HubTime
			ack := arrive + sim.Time(memoBack.Hops)*lat.RouterTime + lat.HubTime
			if ack > ackT {
				ackT = ack
			}
		}
		// Format-induced extra fan-out (limited-pointer broadcast,
		// coarse-vector region spill): each extra target costs the same hub
		// occupancy, hops and acknowledgement as a real invalidation and
		// gates the write's completion, but the target holds no copy — no
		// cache, checker or classifier state changes, which is why the
		// default full-vector scenario (empty Extra) never enters this loop
		// and stays bit-identical to the pre-format machine.
		for _, s := range extra {
			sp := m.procs[s]
			m.hubs[home].Acquire(t, lat.InvalOcc)
			if sp.router != memoRouter {
				memoRouter = sp.router
				memoOut = m.fabric.Route(homeRouter, sp.router)
				memoBack = m.fabric.Route(sp.router, p.router)
			}
			arrive := t + sim.Time(memoOut.Hops)*lat.RouterTime + lat.HubTime
			ack := arrive + sim.Time(memoBack.Hops)*lat.RouterTime + lat.HubTime
			if ack > ackT {
				ackT = ack
			}
		}
		p.sp.Counters.Invalidations += int64(len(invalidate) + len(extra))
		t = ackT
	}
	return t, dirty, queued
}

func (p *Proc) demandMiss(block, addr uint64, write bool, kind sim.StatKind) {
	m := p.m
	c := &p.sp.Counters
	page := mempolicy.PageOf(addr)
	home := m.homeOf(page, p.node)
	remote := home != p.node

	invalsBefore := c.Invalidations
	complete, dirty, queued := p.transaction(block, home, write)

	newState := cache.Shared
	if write {
		newState = cache.Modified
	}
	if victim, evicted := p.cache.Fill(block, newState); evicted {
		p.evictVictim(victim, complete)
	}
	delete(p.prefetch, block) // any in-flight prefetch is superseded
	if ck := m.check; ck != nil {
		ck.OnFill(p.ID(), block, write, p.sp.Now())
		ck.OnTxnEnd(p.ID(), block, p.sp.Now())
	}

	latency := complete - p.sp.Now()
	invals := int(c.Invalidations - invalsBefore)
	class := memclass.Local
	switch {
	case dirty:
		class = memclass.RemoteDirty
		c.RemoteDirty++
		c.RemoteStall += latency
	case remote:
		class = memclass.RemoteClean
		c.RemoteClean++
		c.RemoteStall += latency
	default:
		c.LocalMisses++
		c.LocalStall += latency
	}
	c.ContentionStall += queued
	if sh := m.sharing; sh != nil {
		// The classifier sees the miss after transaction's invalidations
		// above snapshotted the victims' word versions; no yield separates
		// the two, which is what makes the true/false split exact.
		sh.OnMiss(p.ID(), block, sharing.WordOf(addr), write, class, home, page, invals)
	}
	if tr := m.tracer; tr != nil {
		tr.Miss(p.ID(), p.sp.Now(), latency, block, page, home,
			invals, m.dir.SharerWidth(block), missKind[class])
	}

	if remote {
		p.recordMigration(page, home, complete, kind)
	} else if m.migrator != nil {
		c.MigratedAccesses++ // local thanks to earlier placement/migration
	}
	p.sp.Advance(latency, kind)
	p.tickMetrics()
}

// upgrade handles a write hit on a Shared line: ownership is obtained from
// the home directory and other sharers are invalidated; no data moves.
func (p *Proc) upgrade(block, addr uint64, kind sim.StatKind) {
	c := &p.sp.Counters
	page := mempolicy.PageOf(addr)
	home := p.m.homeOf(page, p.node)

	invalsBefore := c.Invalidations
	complete, _, queued := p.transaction(block, home, true)
	p.cache.SetState(block, cache.Modified)
	if ck := p.m.check; ck != nil {
		ck.OnUpgrade(p.ID(), block, p.sp.Now())
		ck.OnTxnEnd(p.ID(), block, p.sp.Now())
	}

	latency := complete - p.sp.Now()
	invals := int(c.Invalidations - invalsBefore)
	c.Upgrades++
	if sh := p.m.sharing; sh != nil {
		sh.OnUpgrade(p.ID(), block, sharing.WordOf(addr), invals)
	}
	if home != p.node {
		c.RemoteStall += latency
	} else {
		c.LocalStall += latency
	}
	c.ContentionStall += queued
	if tr := p.m.tracer; tr != nil {
		tr.Miss(p.ID(), p.sp.Now(), latency, block, page, home,
			invals, p.m.dir.SharerWidth(block), trace.EvUpgrade)
	}
	p.sp.Advance(latency, kind)
	p.tickMetrics()
}

// evictVictim handles a line displaced from the requester's cache: dirty
// victims are written back to their home (occupancy only — writebacks are
// off the critical path); clean victims send a replacement hint so the
// directory stays precise.
func (p *Proc) evictVictim(v cache.Victim, at sim.Time) {
	m := p.m
	vpage := v.Block >> (mempolicy.PageShift - blockShift)
	vhome := m.homeOf(vpage, p.node)
	if v.State == cache.Modified {
		lat := &m.cfg.Lat
		m.hubs[p.node].Acquire(at, lat.WritebackOcc)
		if vhome != p.node {
			m.hubs[vhome].Acquire(at, lat.WritebackOcc)
		}
		m.mems[vhome].Acquire(at, lat.WritebackOcc)
		m.dir.Writeback(v.Block, p.ID())
		p.sp.Counters.Writebacks++
		if ck := m.check; ck != nil {
			ck.OnWriteback(p.ID(), v.Block, p.sp.Now())
		}
		if tr := m.tracer; tr != nil {
			tr.Writeback(p.ID(), at, v.Block, vpage, vhome)
		}
	} else {
		m.dir.Evict(v.Block, p.ID())
		if ck := m.check; ck != nil {
			ck.OnEvict(p.ID(), v.Block, p.sp.Now())
		}
	}
}

// recordMigration feeds the dynamic-migration policy and charges the cost
// of a triggered page move. oldHome is the page's home before the miss.
func (p *Proc) recordMigration(page uint64, oldHome int, at sim.Time, kind sim.StatKind) {
	m := p.m
	if m.migrator == nil {
		return
	}
	// The page table's OnRemap hook (Machine.pageRemapped) moves the page's
	// share of the directory's state counts from the old home to the new.
	newHome, migrated := m.pages.RecordRemoteMiss(page, p.node)
	if !migrated {
		return
	}
	lat := &m.cfg.Lat
	blocks := sim.Time(mempolicy.PageBytes / BlockBytes)
	m.mems[newHome].Acquire(at, blocks*lat.PageMovePerBlock)
	p.sp.Counters.PageMigrations++
	if tr := m.tracer; tr != nil {
		tr.Migration(p.ID(), p.sp.Now(), page, oldHome, newHome)
	}
	// The triggering access eats the shootdown/copy latency.
	p.sp.Advance(lat.MigrationFreeze, kind)
}

// fetchOp performs an uncached, at-memory fetch&op at addr's home.
func (p *Proc) fetchOp(addr uint64, kind sim.StatKind) {
	m := p.m
	lat := &m.cfg.Lat
	tr := m.tracer
	page := mempolicy.PageOf(addr)
	if !p.fetchOpInShard(page) {
		p.sp.AwaitGlobal()
		defer p.sp.EndGlobal()
	}
	home := m.homeOf(page, p.node)
	t := p.sp.Now() + lat.ProcOverhead
	var queued sim.Time
	acq := func(r *sim.Resource, occ sim.Time, qc trace.QueueClass, unit int) {
		start := r.Acquire(t, occ)
		if tr != nil && start > t {
			tr.QueueDelay(p.ID(), t, start-t, qc, unit)
		}
		queued += start - t
		t = start
	}
	acq(&m.hubs[p.node], lat.HubOcc, trace.QHub, p.node)
	t += lat.HubTime
	if home != p.node {
		t += lat.RemoteExtra
		route := m.fabric.Route(p.router, m.routerOfNode(home))
		t += sim.Time(route.Hops) * lat.RouterTime
		if route.Meta >= 0 {
			acq(&m.metas[route.Meta], lat.MetaOcc, trace.QMeta, route.Meta)
			t += lat.MetaExtra
		}
		acq(&m.hubs[home], lat.HubOcc, trace.QHub, home)
		t += lat.HubTime
		acq(&m.mems[home], lat.FetchOpOcc, trace.QMem, home)
		t += lat.FetchOpTime
		t += lat.HubTime + sim.Time(route.Hops)*lat.RouterTime
		if route.Meta >= 0 {
			t += lat.MetaExtra
		}
		t += lat.HubTime
	} else {
		acq(&m.mems[home], lat.FetchOpOcc, trace.QMem, home)
		t += lat.FetchOpTime + lat.HubTime
	}
	p.sp.Counters.FetchOps++
	p.sp.Counters.ContentionStall += queued
	if tr != nil {
		tr.FetchOp(p.ID(), p.sp.Now(), t-p.sp.Now(), addr>>blockShift, home)
	}
	p.sp.Advance(t-p.sp.Now(), kind)
	p.tickMetrics()
}

// Prefetch issues a non-binding software prefetch for addr. The line is
// fetched through the normal coherence path (consuming Hub, memory and
// router bandwidth) but the processor does not stall; a later demand access
// waits only for the residual fill time. At most Config.MaxPrefetch
// prefetches are outstanding; extra ones are dropped, as on real hardware.
func (p *Proc) Prefetch(addr uint64) {
	block := addr >> blockShift
	if p.cache.Peek(block) != cache.Invalid {
		return
	}
	if _, ok := p.prefetch[block]; ok {
		return
	}
	// Retire completed entries from the FIFO head.
	now := p.sp.Now()
	for len(p.prefetchQ) > 0 {
		h := p.prefetchQ[0]
		if ready, ok := p.prefetch[h]; !ok || ready <= now {
			p.prefetchQ = p.prefetchQ[1:]
			continue
		}
		break
	}
	if len(p.prefetchQ) >= p.m.cfg.MaxPrefetch {
		return // buffer full: drop
	}
	m := p.m
	page := mempolicy.PageOf(addr)
	// A prefetch walks the same coherence path as a read miss, so it uses
	// the same shard classification.
	if !p.shardLocal(block, page, false, false) {
		p.sp.AwaitGlobal()
		defer p.sp.EndGlobal()
	}
	home := m.homeOf(page, p.node)
	complete, _, _ := p.transaction(block, home, false)
	if victim, evicted := p.cache.Fill(block, cache.Shared); evicted {
		p.evictVictim(victim, complete)
	}
	if ck := m.check; ck != nil {
		ck.OnFill(p.ID(), block, false, p.sp.Now())
		ck.OnTxnEnd(p.ID(), block, p.sp.Now())
	}
	if sh := m.sharing; sh != nil {
		sh.OnPrefetchFill(p.ID(), block)
	}
	if tr := m.tracer; tr != nil {
		tr.Prefetch(p.ID(), p.sp.Now(), complete-p.sp.Now(), block, home)
	}
	p.prefetch[block] = complete
	p.prefetchQ = append(p.prefetchQ, block)
	p.sp.Counters.Prefetches++
	p.sp.Advance(m.cycle, sim.StatBusy) // issue cost: one cycle
}
