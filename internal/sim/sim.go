// Package sim provides a deterministic direct-execution discrete-event
// engine for multiprocessor performance simulation.
//
// Each simulated processor runs application code in its own coroutine and
// owns a virtual clock. Execution proceeds in conservative time windows:
// the engine repeatedly picks the window [T, T+W) that contains the
// smallest runnable clock (W is the window from NewEngine, the old
// scheduling quantum) and runs every processor whose clock falls inside it
// up to the window edge, in two phases:
//
//   - Phase 1 executes each shard's processors independently. A shard is a
//     statically assigned group of processors (SetShards; by default all
//     processors form one shard) whose simulated state is disjoint from
//     every other shard's, so shards may execute on different host cores
//     with no synchronization beyond the window barrier. Within a shard,
//     processors run one at a time in deterministic (clock, id) order. An
//     operation that would touch another shard's state calls AwaitGlobal,
//     which suspends the processor into the commit queue.
//
//   - Phase 2 (commit) is single-threaded: suspended processors resume in
//     deterministic (virtual time, proc) order and perform their
//     cross-shard operations, continuing until they block, finish, or
//     reach the window edge.
//
// The two-phase schedule is identical at any worker count (SetWorkers):
// phase 1 shards are state-disjoint so their relative execution order
// cannot affect results, and phase 2 is always serial. A run with 8 host
// workers is therefore bit-identical to a run with 1 — same clocks, same
// statistics, same event order within every shard and within commit.
//
// Control passes directly between processor coroutines along per-shard
// chains and along the commit chain. A chain runs on a lane, a host
// execution slot: a processor that stops running names its successor on
// the lane and parks, and the lane's driver resumes that successor — two
// coroutine switches per handoff, with no channel operation and no
// scheduler wake-up. The Run goroutine drives lane 0, which carries every
// serial chain (commit, run-ahead, turnover); lanes 1..workers-1 each have
// one helper goroutine per Run. Within a window, shard chains are claimed
// from a shared counter in shard order: a chain that runs dry immediately
// starts the next unclaimed shard's chain on the same lane (work
// stealing), so the central Run loop is involved only at window
// boundaries, for deadlock detection, and for panic propagation. Which
// lane executes a shard never affects results — shards are state-disjoint
// and the claim order is fixed — so stealing only moves wall-clock time
// around.
//
// # Run-ahead fast path
//
// Whenever every runnable processor belongs to a single shard — one
// processor alive anywhere, a sequential section of a parallel program, or
// any program on a single-shard engine — windowed scheduling is pure
// overhead: there is nothing to run concurrently and nothing to commit.
// The engine then collapses into a run-ahead mode: the shard's runnable
// processors form one (clock, id) heap, and control passes directly from
// processor to processor, each running until it has advanced a window's
// width past the next-lowest runnable clock. This is the direct-handoff
// schedule of the original serial engine, with no window bookkeeping and
// no coordinator round-trips. The mode is entered and exited on conditions
// that are pure functions of the deterministic simulation state (the
// runnable set and its shard assignment — never the worker count or host
// timing), so results remain bit-identical at any worker count. Waking a
// processor of another shard ends the mode at the waker's next yield.
//
// Shared hardware resources (memory controllers, network routers, ...) are
// modeled as Resource timelines: a transaction occupies a resource for some
// duration and queues behind earlier transactions, which is how the engine
// models contention.
//
// # Deterministic tie-breaks
//
// Every scheduling decision in the engine breaks virtual-time ties by
// processor id, so two runs of the same program produce identical virtual
// times and statistics:
//
//   - shard run order (phase 1): (clock, id) min-heap per shard
//   - commit order (phase 2): (suspend time, id) min-heap
//   - commit fast path: the running processor keeps executing only while
//     it is strictly (clock, id)-less than the commit-queue minimum
//   - run-ahead handoff order: the same (clock, id) heap
//   - deadlock reports: blocked ids sorted ascending
//   - panic propagation: when several shards panic in one window, the
//     panic from the lowest processor id is re-raised
package sim

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Time is a point or duration in virtual time, in picoseconds. Picoseconds
// keep processor cycles at non-round frequencies (e.g. 195 MHz) integral.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// maxTime is the run-ahead limit of a processor with no runnable peers.
const maxTime Time = 1<<62 - 1

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Nanoseconds reports t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t)/int64(Nanosecond))
	}
}

// StatKind selects the execution-time bucket a duration is charged to,
// matching the paper's three-way breakdown (Section 3).
type StatKind int

const (
	// StatBusy is useful computation.
	StatBusy StatKind = iota
	// StatMemory is stall time waiting for cache misses.
	StatMemory
	// StatSync is time spent at synchronization events (wait + overhead).
	StatSync
	numStats
)

func (k StatKind) String() string {
	switch k {
	case StatBusy:
		return "Busy"
	case StatMemory:
		return "Memory"
	case StatSync:
		return "Sync"
	}
	return fmt.Sprintf("StatKind(%d)", int(k))
}

// DefaultQuantum is the default window width W. Processors inside a window
// may run up to W ahead of each other before the window barrier reorders
// them; smaller windows order resource acquisitions more precisely, larger
// windows run faster. (The name survives from the pre-windowed engine,
// whose run-ahead quantum played the same accuracy-vs-speed role with the
// same default.)
const DefaultQuantum = 1 * Microsecond

// Proc execution modes within a window.
const (
	// modePhase1: running inside its shard, restricted to shard-local state.
	modePhase1 int8 = iota
	// modeCommit: running in the serial commit phase (or the run-ahead fast
	// path), free to touch any state.
	modeCommit
)

// serialLane is the lane of every serial chain — commit, run-ahead and
// turnover — and of the first phase-1 chain; the Run goroutine drives it.
const serialLane = 0

// lane is a host execution slot for chains. Its driver resumes one
// processor coroutine at a time: a processor that stops running records
// its successor in next and parks, and the driver resumes that successor.
// A coroutine cannot resume a sibling without nesting inside it, so every
// switch goes through the driver.
type lane struct {
	next     *Proc         // processor to resume once the running one parks; nil ends the chain
	panicked *Proc         // processor whose body panicked, ending the chain
	err      any           // its panic value
	start    chan struct{} // helper lanes only: a chain was dispatched on the lane
	// Concurrent lanes write next on every handoff; keep them on separate
	// cache lines.
	_ [64]byte
}

// chainEnd reports how a helper lane's chain ended: p is nil when it ran
// dry, or the processor whose panic (err) ended it.
type chainEnd struct {
	p   *Proc
	err any
}

// abandonRun is panicked by parked processor coroutines when the engine
// abandons a run (deadlock or propagated panic) so their stacks unwind and
// the coroutines finish instead of leaking.
type abandonRun struct{}

// Engine coordinates a set of simulated processors.
type Engine struct {
	procs   []*Proc
	window  Time // window width W, fixed for the engine's lifetime
	workers int  // max concurrently executing shard chains in phase 1

	numShards  int
	shardHeaps []procHeap // phase-1 run queues, one per shard
	staged     [][]*Proc  // per-shard AwaitGlobal arrivals, merged at the phase barrier
	commit     procHeap   // phase-2 queue, ordered (suspend time, id)
	commitSeq  int64      // total commits so far; stamps Proc.seq at merge

	windowEnd Time // current window edge (exclusive); maxTime in run-ahead mode

	// Run-ahead fast path: every runnable processor is in shard raShard and
	// control passes directly between them through the shard's heap. raExit
	// is set when a cross-shard wake invalidates the mode's precondition.
	runAhead bool
	raShard  int
	raExit   bool

	// stealNext is the next shard index to claim for phase 1. Dispatch
	// claims shards in index order; a dying chain claims the next one
	// itself instead of round-tripping through the coordinator. Atomic
	// because chains of different shards race to claim; the claim order —
	// and therefore the schedule — is fixed regardless of who wins.
	stealNext atomic.Int64

	// Scheduling-shape statistics (deterministic: derived from the
	// schedule, not from host timing). windows counts windowed rounds,
	// shardChains the phase-1 chains dispatched across them — their ratio
	// is the average number of chains a window offers to run concurrently.
	// shardChains is atomic only because concurrent chains increment it;
	// its total is schedule-determined.
	windows     int64
	shardChains atomic.Int64
	commitRuns  int64 // commit-chain resumes (always serial)
	widthSum    Time  // total width of windowed rounds
	raSpans     int64 // run-ahead mode entries
	raHandoffs  int64 // direct handoffs inside run-ahead mode

	// Quiescent hook (SetQuiescentHook): called at every round open — the
	// only points where every processor is parked and a consistent snapshot
	// of the machine exists. quiesSeq counts round opens; it is carried
	// across Run calls (multi-phase programs) and reset by Reset, so it
	// addresses rounds stably across an entire experiment.
	quiescent QuiescentHook
	quiesSeq  int64

	// Host-time profiler (SetHostProfiler): nil when profiling is off.
	// Strictly observational — see hostprof.go for the contract.
	prof HostProfiler

	// lanes[serialLane] is driven by the Run goroutine; lanes 1.. by one
	// helper goroutine each, which report chain ends on laneDone.
	lanes    []lane
	laneDone chan chainEnd
}

// NewEngine creates an engine with n processors and the given window width
// (DefaultQuantum if quantum <= 0). The engine starts with one shard
// containing every processor and one worker; see SetShards and SetWorkers.
func NewEngine(n int, quantum Time) *Engine {
	if n <= 0 {
		panic("sim: engine needs at least one processor")
	}
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	e := &Engine{
		window:  quantum,
		workers: 1,
	}
	e.procs = make([]*Proc, n)
	for i := range e.procs {
		e.procs[i] = &Proc{id: i, e: e, heapIndex: -1}
	}
	e.setShardCount(1)
	return e
}

// SetShards assigns processor i to shard shardOf[i] (0 <= shard < n).
// Shards must partition simulated state: a processor running in phase 1
// may only touch state owned by its own shard, and must call AwaitGlobal
// before any operation that crosses shards. Call before Run.
func (e *Engine) SetShards(shardOf []int, n int) {
	if len(shardOf) != len(e.procs) {
		panic("sim: SetShards length mismatch")
	}
	if n < 1 {
		n = 1
	}
	for i, s := range shardOf {
		if s < 0 || s >= n {
			panic("sim: SetShards shard index out of range")
		}
		e.procs[i].shard = s
	}
	e.setShardCount(n)
}

func (e *Engine) setShardCount(n int) {
	e.numShards = n
	e.shardHeaps = make([]procHeap, n)
	e.staged = make([][]*Proc, n)
}

// NumShards reports the number of shards.
func (e *Engine) NumShards() int { return e.numShards }

// SetWorkers bounds how many shard chains execute concurrently in phase 1.
// Results are bit-identical at any worker count; 1 (the default) is the
// serial reference schedule.
func (e *Engine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	e.workers = n
}

// Workers reports the phase-1 worker bound.
func (e *Engine) Workers() int { return e.workers }

// Window reports the window width W.
func (e *Engine) Window() Time { return e.window }

// NumProcs reports the number of simulated processors.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Proc returns processor i.
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

// Procs returns all processors, ordered by id.
func (e *Engine) Procs() []*Proc { return e.procs }

// DeadlockError reports that no processor was runnable before all finished.
type DeadlockError struct {
	// Blocked lists the ids of processors stuck in Block.
	Blocked []int
}

func (d *DeadlockError) Error() string {
	ids := make([]string, len(d.Blocked))
	for i, id := range d.Blocked {
		ids[i] = fmt.Sprint(id)
	}
	return "sim: deadlock, blocked processors: " + strings.Join(ids, ",")
}

// Run executes body once per processor under the virtual-time scheduler and
// returns when all processors have finished. It returns a *DeadlockError if
// every unfinished processor is blocked. Panics inside body are re-raised on
// the caller's goroutine.
//
// Run may be called repeatedly; virtual clocks and statistics carry over, so
// successive phases accumulate. Use Reset to start fresh.
func (e *Engine) Run(body func(p *Proc)) error {
	e.runAhead = false
	e.raExit = false
	e.commit = e.commit[:0]
	for s := range e.shardHeaps {
		e.shardHeaps[s] = e.shardHeaps[s][:0]
		e.staged[s] = e.staged[s][:0]
	}
	for _, p := range e.procs {
		p.finished = false
		p.blocked = false
		p.mode = modePhase1
		p.global = 0
		p.heapIndex = -1
		p.spawn(body)
	}
	defer e.startLanes()()
	for {
		// Between windows every live processor is parked: finished,
		// blocked in Block, or runnable and waiting for its next window.
		switch e.openRound(true) {
		case roundNone:
			return e.endRun()
		case roundRunAhead:
			e.awaitChains(1)
			continue
		}

		// Phase 1: claim shard chains in index order, one per lane up to
		// the worker bound; each dying chain claims the next itself (work
		// stealing), so each lane's chain ends once.
		outstanding := 0
		for outstanding < e.workers && e.startNextChain(outstanding, false) {
			if outstanding != serialLane {
				e.lanes[outstanding].start <- struct{}{}
			}
			outstanding++
		}
		if outstanding > 0 {
			e.awaitChains(outstanding)
		}

		// Phase barrier, then phase 2: one serial commit chain in (suspend
		// time, id) order.
		e.mergeStaged()
		if len(e.commit) > 0 {
			e.startCommit()
			e.awaitChains(1)
		}
	}
}

// mergeStaged is the phase barrier: it merges the shards' AwaitGlobal
// arrivals into the commit queue. The heap orders commits by (suspend time,
// id), so the merge result is independent of shard execution order; the
// shard-major visit order only assigns the diagnostic seq stamps.
func (e *Engine) mergeStaged() {
	for s := range e.staged {
		for _, p := range e.staged[s] {
			e.commitSeq++
			p.seq = e.commitSeq
			e.commit.push(p)
		}
		e.staged[s] = e.staged[s][:0]
	}
}

// startCommit opens the window's serial commit chain: it hands the serial
// lane to the commit queue's minimum.
func (e *Engine) startCommit() {
	e.commitRuns++
	q := e.commit.pop()
	q.mode = modeCommit
	q.limit = e.windowEnd - 1
	if e.prof != nil {
		e.prof.SerialBegin(SerialCommit)
	}
	e.handoff(q, serialLane)
}

// startLanes sizes the lanes for one Run and starts a helper goroutine for
// every lane beyond the serial lane. At most min(workers, shards) chains
// ever run at once, so a single-chain engine has no helper and its
// handoffs involve no channel operation at all. The returned func stops
// the helpers and waits for them to exit.
func (e *Engine) startLanes() (stop func()) {
	n := min(e.workers, e.numShards)
	if len(e.lanes) != n {
		e.lanes = make([]lane, n)
	}
	if n > 1 && e.laneDone == nil {
		e.laneDone = make(chan chainEnd)
	}
	for l := 1; l < n; l++ {
		e.lanes[l].start = make(chan struct{})
		go e.helpLane(l)
	}
	return func() {
		for l := 1; l < n; l++ {
			close(e.lanes[l].start)
		}
		for l := 1; l < n; l++ {
			<-e.laneDone
		}
	}
}

// helpLane drives lane l's chain each time one is dispatched on it and
// reports the chain's end; a final report acknowledges the lane's stop.
func (e *Engine) helpLane(l int) {
	for range e.lanes[l].start {
		e.laneDone <- e.driveLane(l)
	}
	e.laneDone <- chainEnd{}
}

// handoff makes q the processor lane l resumes next: the chain continues
// with q as soon as the caller parks or finishes.
func (e *Engine) handoff(q *Proc, l int) {
	q.lane = l
	e.lanes[l].next = q
}

// driveLane runs lane l's chain until no processor names a successor, and
// reports how it ended.
func (e *Engine) driveLane(l int) chainEnd {
	ln := &e.lanes[l]
	for q := ln.next; q != nil; q = ln.next {
		ln.next = nil
		q.resume()
	}
	end := chainEnd{p: ln.panicked, err: ln.err}
	ln.panicked, ln.err = nil, nil
	return end
}

// round is the kind of scheduling round openRound opened.
type round int8

const (
	// roundNone: no processor is runnable, so nothing was opened; the run
	// has finished or deadlocked.
	roundNone round = iota
	// roundRunAhead: every runnable processor is in one shard, and the
	// engine entered the run-ahead fast path.
	roundRunAhead
	// roundWindow: a window was opened and its processors queued.
	roundWindow
)

// openRound opens the next scheduling round. It scans for runnable
// processors and their smallest clock, announces the round to the quiescent
// hook, and then either enters the run-ahead fast path — every runnable
// processor is in one shard, so windowing has nothing to order — or opens
// the window around that clock. The coordinator (Run, between rounds) and
// the last chain of a dying window (turnover) both open rounds here, so they
// decide from the same inputs in the same order. It runs with no chain
// executing; coordinator says which of the two callers it is (see quiesce).
func (e *Engine) openRound(coordinator bool) round {
	if e.prof != nil {
		e.prof.SerialBegin(SerialTurnover)
	}
	runnable := 0
	var minNow Time = maxTime
	loneShard, oneShard := -1, true
	quiet := true
	for _, p := range e.procs {
		if p.finished {
			continue
		}
		if p.global > 0 {
			quiet = false
		}
		if p.blocked {
			continue
		}
		runnable++
		if p.now < minNow {
			minNow = p.now
		}
		if loneShard < 0 {
			loneShard = p.shard
		} else if p.shard != loneShard {
			oneShard = false
		}
	}
	if runnable == 0 {
		if e.prof != nil {
			e.prof.SerialEnd(SerialTurnover)
		}
		return roundNone
	}
	e.quiesce(minNow, quiet, coordinator)
	if oneShard {
		if e.prof != nil {
			e.prof.SerialEnd(SerialTurnover)
		}
		e.enterRunAhead(loneShard)
		return roundRunAhead
	}
	e.openWindow(minNow)
	if e.prof != nil {
		e.prof.SerialEnd(SerialTurnover)
	}
	return roundWindow
}

// openWindow opens the window [T, T+W) around the smallest runnable clock
// minNow and queues every in-window processor: the commit heap for open
// global sections (their cross-shard operation spans the window edge, or
// they were woken mid-protocol — they must stay serialized), the shard
// heaps for everyone else.
func (e *Engine) openWindow(minNow Time) {
	T := minNow - minNow%e.window
	e.windowEnd = T + e.window
	e.windows++
	e.widthSum += e.window
	for _, q := range e.procs {
		if q.finished || q.blocked || q.now >= e.windowEnd {
			continue
		}
		if q.global > 0 {
			q.mode = modeCommit
			e.commit.push(q)
		} else {
			e.shardHeaps[q.shard].push(q)
		}
	}
	e.stealNext.Store(0)
	if e.prof != nil {
		backlog := 0
		for s := range e.shardHeaps {
			if len(e.shardHeaps[s]) > 0 {
				backlog++
			}
		}
		e.prof.WindowOpen(e.window, backlog, len(e.commit))
	}
}

// startNextChain claims undispatched shards in index order until it finds
// one with queued work, dispatches that shard's chain by resuming its
// (clock, id) minimum on the given lane, and reports whether a chain was
// started. Safe to call from concurrent chains: the claim counter hands
// each shard to exactly one caller, and only that caller touches the
// shard's heap. steal marks calls from a dying chain (profiling only — the
// claim semantics are identical).
func (e *Engine) startNextChain(lane int, steal bool) bool {
	for {
		s := int(e.stealNext.Add(1)) - 1
		if s >= e.numShards {
			if e.prof != nil && steal {
				e.prof.StealAttempt(lane, false)
			}
			return false
		}
		h := &e.shardHeaps[s]
		if len(*h) == 0 {
			continue
		}
		p := h.pop()
		p.lane = lane
		p.mode = modePhase1
		p.limit = e.windowEnd - 1
		e.shardChains.Add(1)
		if e.prof != nil {
			if steal {
				e.prof.StealAttempt(lane, true)
			}
			e.prof.ChainBegin(lane)
		}
		e.handoff(p, lane)
		return true
	}
}

// enterRunAhead collapses the engine into the run-ahead fast path: every
// runnable processor (all in shard s) joins the shard's heap and the
// minimum runs first. Callable from the coordinator or from the last chain
// of a dying window (turnover).
func (e *Engine) enterRunAhead(s int) {
	e.runAhead = true
	e.raExit = false
	e.raShard = s
	e.raSpans++
	e.windowEnd = maxTime
	h := &e.shardHeaps[s]
	for _, p := range e.procs {
		if !p.finished && !p.blocked {
			h.push(p)
		}
	}
	if e.prof != nil {
		e.prof.SerialBegin(SerialRunAhead)
	}
	e.raResume()
}

// raResume pops the run-ahead heap's minimum and hands the serial lane to
// it, allowed to run one window width past the next-lowest runnable clock
// (unbounded when it has no runnable peer).
func (e *Engine) raResume() {
	h := &e.shardHeaps[e.raShard]
	q := h.pop()
	q.mode = modeCommit
	if len(*h) > 0 {
		q.limit = (*h)[0].now + e.window - 1
	} else {
		q.limit = maxTime
	}
	e.handoff(q, serialLane)
}

// singleChain reports whether at most one chain can ever be executing, so
// a dying chain may continue the schedule in-chain (see Proc.chainStep)
// instead of waking the coordinator: either the engine has a single shard,
// or phase 1 is limited to one worker.
func (e *Engine) singleChain() bool {
	return e.workers == 1 || e.numShards == 1
}

// turnover opens the next scheduling round from inside the chain
// (singleChain engines only): when the last chain of a window runs dry the
// window is over, and the chain itself can start the next one — or enter
// the run-ahead fast path — skipping two coordinator round-trips per
// round. The round is opened by the coordinator's own openRound and
// dispatched in the coordinator's order, so the schedule is unchanged. It
// leaves the lane without a successor, returning control to the
// coordinator, when the run is over or deadlocked: finish and deadlock
// reporting stay with the coordinator.
func (e *Engine) turnover() {
	if e.openRound(false) != roundWindow {
		return
	}
	// Turnover runs in-chain only on singleChain engines, where at most one
	// chain ever executes: the next chain is always the serial lane's. If
	// no shard has queued work, every processor in the window is inside an
	// open global section: the window is all commit phase.
	if !e.startNextChain(serialLane, false) {
		e.startCommit()
	}
}

// SchedStats reports the schedule's shape: windowed rounds executed,
// phase-1 shard chains dispatched across them, and processors merged into
// commit queues. shardChains/windows is the average number of chains a
// window offered to run concurrently — the schedule's available
// parallelism, identical at any worker count. Run-ahead execution counts
// toward none of these (see Shape).
func (e *Engine) SchedStats() (windows, shardChains, commits int64) {
	return e.windows, e.shardChains.Load(), e.commitSeq
}

// SchedShape is the engine's full scheduling-shape report. Every field is
// derived from the deterministic schedule — never from host timing — so it
// is bit-identical at any worker count.
type SchedShape struct {
	Windows          int64 // windowed rounds executed
	ShardChains      int64 // phase-1 chains dispatched across them
	Commits          int64 // processors merged into commit queues
	CommitRuns       int64 // serial commit-chain resumes
	RunAheadSpans    int64 // entries into the run-ahead fast path
	RunAheadHandoffs int64 // direct processor handoffs inside run-ahead spans
	WindowWidthSum   Time  // total width of windowed rounds (avg = sum/Windows)
}

// Shape reports the schedule's shape counters.
func (e *Engine) Shape() SchedShape {
	return SchedShape{
		Windows:          e.windows,
		ShardChains:      e.shardChains.Load(),
		Commits:          e.commitSeq,
		CommitRuns:       e.commitRuns,
		RunAheadSpans:    e.raSpans,
		RunAheadHandoffs: e.raHandoffs,
		WindowWidthSum:   e.widthSum,
	}
}

// awaitChains drives the serial lane's chain to its end, then waits for the
// n-1 chains dispatched on helper lanes. If any chain ended in a panic it
// unwinds every parked processor and re-raises one panic: the lowest
// processor id's when several shards panicked in the same window, so the
// choice never depends on host timing.
func (e *Engine) awaitChains(n int) {
	end := e.driveLane(serialLane)
	for ; n > 1; n-- {
		if ev := <-e.laneDone; ev.p != nil && (end.p == nil || ev.p.id < end.p.id) {
			end = ev
		}
	}
	if end.p != nil {
		e.release()
		panic(end.err)
	}
}

// endRun reports how a run with no runnable processor ended: nil when every
// processor finished, otherwise a *DeadlockError naming the processors
// stuck in Block, after releasing every parked processor so none leak.
func (e *Engine) endRun() error {
	d := &DeadlockError{}
	for _, p := range e.procs {
		if p.blocked {
			d.Blocked = append(d.Blocked, p.id)
		}
	}
	if len(d.Blocked) == 0 {
		return nil
	}
	sort.Ints(d.Blocked)
	e.release()
	return d
}

// release unwinds every unfinished processor coroutine: a parked one sees
// its park fail, panics abandonRun and finishes; one that never started
// finishes without running its body. Each unwind completes before the
// call returns, so nothing of an abandoned run survives into a later Run.
// It must only be called from Run with no chain executing: every
// unfinished processor is then parked or not yet started.
func (e *Engine) release() {
	for _, p := range e.procs {
		p.abandon()
	}
	e.runAhead = false
	e.commit = e.commit[:0]
	for s := range e.shardHeaps {
		e.shardHeaps[s] = e.shardHeaps[s][:0]
		e.staged[s] = e.staged[s][:0]
	}
	for _, p := range e.procs {
		p.heapIndex = -1
	}
}

// runProc is the body of p's coroutine. A panic in body ends p's chain: it
// is recorded on the lane, and the lane's driver reports it.
func (e *Engine) runProc(p *Proc, body func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abandonRun); ok {
				return // run abandoned (deadlock/panic); just finish
			}
			p.finished = true
			ln := &e.lanes[p.lane]
			ln.next, ln.panicked, ln.err = nil, p, r
		}
	}()
	if e.prof != nil {
		// With profiling on, label the coroutine so CPU profiles attribute
		// samples to the simulated processor and its shard. Labels are
		// host-side metadata only; the schedule cannot observe them.
		pprof.Do(context.Background(),
			pprof.Labels("sim_proc", strconv.Itoa(p.id), "sim_shard", strconv.Itoa(p.shard)),
			func(context.Context) { body(p) })
	} else {
		body(p)
	}
	p.finished = true
	p.chainStep()
}

// MaxTime returns the largest processor clock: the parallel completion time.
func (e *Engine) MaxTime() Time {
	var m Time
	for _, p := range e.procs {
		if p.now > m {
			m = p.now
		}
	}
	return m
}

// Reset zeroes every processor's clock and statistics, preparing the engine
// for an independent run.
func (e *Engine) Reset() {
	for _, p := range e.procs {
		p.now = 0
		p.limit = 0
		p.blocked = false
		p.finished = false
		p.mode = modePhase1
		p.global = 0
		p.seq = 0
		for k := range p.stats {
			p.stats[k] = 0
		}
		p.Counters = Counters{}
	}
	e.quiesSeq = 0
	e.commitSeq = 0
	e.windows = 0
	e.shardChains.Store(0)
	e.commitRuns = 0
	e.widthSum = 0
	e.raSpans = 0
	e.raHandoffs = 0
}
