package sim

// This file is the engine's side of the checkpoint layer (internal/snapshot):
// a quiescent hook announcing round boundaries — the only points where a
// consistent snapshot of the machine exists — and Snap views of the engine,
// processor, and resource state for serialization.
//
// # Why round boundaries are safe snapshot points
//
// Between scheduling rounds every processor coroutine is parked: finished,
// blocked in Block, or waiting for its next window. No application code is
// on any stack mid-operation — each processor's continuation is fully
// described by (clock, blocked, finished, shard, open global sections) plus
// the deterministic program it runs. A round boundary with no open global
// section ("quiet") additionally guarantees no cross-shard protocol is in
// flight, so directory, cache, and synchronization state are mutually
// consistent. The hook fires at every round open — windowed or run-ahead —
// which is a pure function of the schedule, so the sequence of hook calls
// (and the seq stamps) is bit-identical across engines and worker counts.

// QuiescentHook observes round boundaries. seq is the 1-based round-open
// counter (carried across Run calls, reset by Reset), minNow the smallest
// runnable clock of the opening round, and quiet whether no unfinished
// processor holds an open global section — the precondition for a
// consistent snapshot. The hook runs with every processor parked and may
// read any simulated state; it must not mutate it.
type QuiescentHook func(seq int64, minNow Time, quiet bool)

// SetQuiescentHook installs fn to be called at every round open. A nil fn
// removes the hook. The round counter advances whether or not a hook is
// installed, so seq values are a property of the schedule alone.
func (e *Engine) SetQuiescentHook(fn QuiescentHook) { e.quiescent = fn }

// QuiesSeq reports the number of round opens so far.
func (e *Engine) QuiesSeq() int64 { return e.quiesSeq }

// quiesce advances the round counter and invokes the quiescent hook. It
// runs with no chain executing: every unfinished processor is parked. On
// the coordinator path a hook panic must release the parked processors
// before propagating (on a chain path the panic unwinds through runProc's
// recover, which records it on the lane for awaitChains → release).
func (e *Engine) quiesce(minNow Time, coordinator bool) {
	e.quiesSeq++
	if e.quiescent == nil {
		return
	}
	if coordinator {
		defer func() {
			if r := recover(); r != nil {
				e.release()
				panic(r)
			}
		}()
	}
	e.quiescent(e.quiesSeq, minNow, e.quiet())
}

// quiet reports whether no unfinished processor holds an open global
// section. Only the quiescent hook needs it, so only a round open with a
// hook installed scans the processors for it.
func (e *Engine) quiet() bool {
	for _, p := range e.procs {
		if !p.finished && p.global > 0 {
			return false
		}
	}
	return true
}

// ProcSnap is the serializable state of one processor at a quiescent point.
type ProcSnap struct {
	ID       int   `json:"id"`
	Now      Time  `json:"now"`
	Blocked  bool  `json:"blocked,omitempty"`
	Finished bool  `json:"finished,omitempty"`
	Shard    int   `json:"shard"`
	Global   int   `json:"global,omitempty"`
	Seq      int64 `json:"seq,omitempty"`

	Busy   Time `json:"busy"`
	Memory Time `json:"memory"`
	Sync   Time `json:"sync"`

	Counters Counters `json:"counters"`
}

// Snap captures the processor's state. Only meaningful from a quiescent
// hook (the processor is parked; nothing is mid-flight on its stack).
func (p *Proc) Snap() ProcSnap {
	return ProcSnap{
		ID:       p.id,
		Now:      p.now,
		Blocked:  p.blocked,
		Finished: p.finished,
		Shard:    p.Shard(),
		Global:   p.global,
		Seq:      p.seq,
		Busy:     p.stats[StatBusy],
		Memory:   p.stats[StatMemory],
		Sync:     p.stats[StatSync],
		Counters: p.Counters,
	}
}

// EngineSnap is the serializable scheduling state of the engine at a
// quiescent point: window width, cursors, shape counters, and every
// processor. Together with the deterministic program it fully determines
// the rest of the run.
type EngineSnap struct {
	Window Time `json:"window"`
	// WindowBase equals Window. Checkpoints have always recorded both, so
	// the field stays for the engine section to digest as theirs do.
	WindowBase Time  `json:"window_base"`
	NumShards  int   `json:"num_shards"`
	QuiesSeq   int64 `json:"quies_seq"`

	CommitSeq        int64 `json:"commit_seq"`
	Windows          int64 `json:"windows"`
	ShardChains      int64 `json:"shard_chains"`
	CommitRuns       int64 `json:"commit_runs"`
	WindowWidthSum   Time  `json:"window_width_sum"`
	RunAheadSpans    int64 `json:"run_ahead_spans"`
	RunAheadHandoffs int64 `json:"run_ahead_handoffs"`

	Procs []ProcSnap `json:"procs"`
}

// Snap captures the engine's scheduling state. Only meaningful from a
// quiescent hook.
func (e *Engine) Snap() EngineSnap {
	s := EngineSnap{
		Window:           e.window,
		WindowBase:       e.window,
		NumShards:        e.numShards,
		QuiesSeq:         e.quiesSeq,
		CommitSeq:        e.commitSeq,
		Windows:          e.windows,
		ShardChains:      e.shardChains.Load(),
		CommitRuns:       e.commitRuns,
		WindowWidthSum:   e.widthSum,
		RunAheadSpans:    e.raSpans,
		RunAheadHandoffs: e.raHandoffs,
		Procs:            make([]ProcSnap, len(e.procs)),
	}
	for i, p := range e.procs {
		s.Procs[i] = p.Snap()
	}
	return s
}

// ResourceSnap is the serializable state of one Resource timeline.
type ResourceSnap struct {
	Name     string `json:"name"`
	FreeAt   Time   `json:"free_at"`
	Busy     Time   `json:"busy"`
	Queued   Time   `json:"queued"`
	Acquires int64  `json:"acquires"`
}

// Snap captures the resource's timeline state.
func (r *Resource) Snap() ResourceSnap {
	return ResourceSnap{
		Name:     r.Name,
		FreeAt:   r.freeAt,
		Busy:     r.busy,
		Queued:   r.queued,
		Acquires: r.acquires,
	}
}
