package core

import (
	"origin2000/internal/directory"
	"origin2000/internal/mempolicy"
)

// Sharding glue for the conservatively-parallel engine (DESIGN.md §11).
//
// The machine is sharded by router: processor p belongs to shard p.router,
// and every per-node structure — Hub and memory resources, the home
// directory — belongs to the shard of its node's router. Inside a window's
// phase 1, shards execute concurrently but each shard's state is touched
// only by its own processors; any operation that would reach another
// shard's state instead suspends (sim.Proc.AwaitGlobal) and runs in the
// window's serialized commit phase. The classifier below decides, before a
// transaction starts, whether it can stay inside the issuing processor's
// shard. It must err on the side of "cross-shard" — a false "local" would
// race — and it must depend only on simulation state, never on whether
// observers (checker, tracer, sampler) are attached, so the schedule is
// identical with and without them.

// setupShards wires the engine's shard map (shard = router) and picks the
// host-worker count from Config.Engine/Workers. The checker and the metrics
// sampler read cross-shard state at event time from their observer hooks,
// so enabling either forces one worker; the schedule — and therefore every
// result — is unchanged by the worker count, only wall-clock speed is.
func (m *Machine) setupShards() {
	shardOf := make([]int, m.cfg.Procs)
	for i, p := range m.procs {
		shardOf[i] = p.router
	}
	m.eng.SetShards(shardOf, m.numRouters)
	if tr := m.tracer; tr != nil {
		tr.SetShards(shardOf, m.numRouters)
	}
	workers, _ := EffectiveWorkers(&m.cfg)
	m.eng.SetWorkers(workers)
}

// shardLocal reports whether a demand access to block (a miss, or an
// upgrade when upgrade is true) can run entirely inside p's shard:
//
//   - the page must already be placed (a first touch assigns a home in the
//     shared page table) with its home node on p's router;
//   - dynamic migration must not be able to fire (the migrator's counters
//     are shared), which rules out any remote miss when migration is on;
//   - the directory entry must not fan out of the shard: a dirty owner is
//     always intervened on, and a write invalidates every sharer, so those
//     caches must all live on p's router;
//   - the line the fill will evict (none for an upgrade) must write back
//     through its own home directory, so the predicted victim's home must
//     be placed in-shard too.
//
// When home is on p's router the request route is Route(r, r) = zero hops
// and no metarouter, so a "local" transaction touches only in-shard Hubs,
// memories and routers[p.router].
func (p *Proc) shardLocal(block, page uint64, write, upgrade bool) bool {
	m := p.m
	home, ok := m.pages.Lookup(page)
	if !ok {
		return false
	}
	if m.numRouters == 1 && m.migrator == nil {
		// Single-router machine without migration: every placed home, every
		// sharer, and every victim home is on this router, so the remaining
		// probes below are tautologies. Same decisions, no directory or
		// victim probe.
		return true
	}
	if m.routerOfNode(home) != p.router {
		return false
	}
	if !upgrade && m.migrator != nil && home != p.node {
		return false
	}
	if !p.entryInShard(m.dir.Entry(block), write) {
		return false
	}
	if upgrade {
		return true
	}
	return p.victimInShard(block)
}

// entryInShard reports whether the remote cache-state changes implied by a
// directory transition on e stay on p's router.
func (p *Proc) entryInShard(e directory.Entry, write bool) bool {
	m := p.m
	switch e.State {
	case directory.Exclusive:
		if m.procs[e.Owner].router != p.router {
			return false
		}
	case directory.SharedState:
		if write {
			in := true
			e.Sharers.ForEach(func(q int) {
				if m.procs[q].router != p.router {
					in = false
				}
			})
			if !in {
				return false
			}
		}
	}
	return true
}

// victimInShard reports whether the line a fill of block would displace —
// if any — has a placed home on p's router, so the eviction's writeback or
// replacement hint stays in-shard.
func (p *Proc) victimInShard(block uint64) bool {
	v, evicted := p.cache.PeekVictim(block)
	if !evicted {
		return true
	}
	vpage := v.Block >> (mempolicy.PageShift - blockShift)
	vhome, ok := p.m.pages.Lookup(vpage)
	return ok && p.m.routerOfNode(vhome) == p.router
}

// fetchOpInShard reports whether an at-memory fetch&op on page stays inside
// p's shard (it touches only the route to the home memory).
func (p *Proc) fetchOpInShard(page uint64) bool {
	home, ok := p.m.pages.Lookup(page)
	return ok && p.m.routerOfNode(home) == p.router
}

// GlobalSection suspends the processor until the window's serialized commit
// phase. The synchronization primitives call it before touching their
// shared Go state (barrier arrival lists, lock queues, task pools), which
// both serializes that state and models the paper's observation that
// synchronization is inherently cross-node traffic. The section stays open
// — the processor is scheduled only on the serial commit chain, even
// across window edges and Block/Wake — until the matching EndGlobal, so a
// primitive's whole protocol is one critical section no matter how many
// windows it spans. Sections nest: the simulated traffic a primitive
// issues inside one may open (and close) its own.
func (p *Proc) GlobalSection() { p.sp.AwaitGlobal() }

// EndGlobal closes the section opened by the matching GlobalSection.
func (p *Proc) EndGlobal() { p.sp.EndGlobal() }
