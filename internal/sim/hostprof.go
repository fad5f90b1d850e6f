package sim

// Host-time profiling hooks. The engine's virtual-time schedule is a pure
// function of simulation state — host timing must never feed back into it —
// so the profiler interface is strictly one-way: the engine notifies, the
// profiler records, and nothing flows back (no return values, no errors).
// Every call site is gated on a nil check, so an engine without a profiler
// pays one predictable branch per site and an engine with one is
// schedule-neutral by construction (the hooks read only host clocks and
// quantities the schedule already computed).
//
// Concurrency contract (what an implementation may assume):
//
//   - Lane events (ChainBegin/ChainEnd/StealAttempt) for one lane are
//     totally ordered: every processor on a lane is resumed by that lane's
//     driver, one coroutine at a time, and a chain is dispatched on a
//     helper lane by a channel send to its driver. So the dispatch that
//     begins a lane's chain happens-before the chain's own events, and a
//     lane's end happens-before its next dispatch. Events for different
//     lanes are concurrent — per-lane state needs no locking, shared state
//     does.
//   - Serial events (SerialBegin/SerialEnd/WindowOpen) are emitted only
//     while at most one chain — or only the coordinator — is executing.
//     They come from the coordinator or from the serial lane, which the
//     coordinator's goroutine drives itself, and the coordinator collects
//     every helper lane's end over a channel before the next one, so they
//     are totally ordered.

// Serial-span kinds for HostProfiler.SerialBegin/SerialEnd. The serial
// track records the engine's inherently single-threaded stretches: the
// commit chain, the run-ahead fast path, and round turnover (the runnable
// scan, quiescent hook, and window open — coordinator- or chain-side).
const (
	SerialCommit = iota
	SerialRunAhead
	SerialTurnover
	NumSerialKinds
)

// SerialKindName names a serial-span kind for reports and exports.
func SerialKindName(kind int) string {
	switch kind {
	case SerialCommit:
		return "commit"
	case SerialRunAhead:
		return "run-ahead"
	case SerialTurnover:
		return "turnover"
	}
	return "unknown"
}

// HostProfiler receives host-time notifications from the engine. A lane is
// a host execution slot for phase-1 shard chains, in [0, Workers()): the
// coordinator dispatches up to Workers chains per window, one per lane, and
// a dying chain that steals the next shard keeps its lane.
type HostProfiler interface {
	// ChainBegin marks a phase-1 shard chain dispatched on lane.
	ChainBegin(lane int)
	// ChainEnd marks lane's current chain running dry.
	ChainEnd(lane int)
	// StealAttempt marks a dry chain on lane trying to claim another
	// shard's chain; hit reports whether one was claimed.
	StealAttempt(lane int, hit bool)
	// SerialBegin/SerialEnd bracket a serial-track span of the given kind.
	SerialBegin(kind int)
	SerialEnd(kind int)
	// WindowOpen samples the schedule at a window open: the width chosen
	// for the window, the number of shard chains it queued (the runnable
	// backlog phase 1 can spread over lanes), and the commit-queue depth.
	WindowOpen(width Time, backlog, commitDepth int)
}

// SetHostProfiler attaches hp to the engine (nil detaches). The profiler
// only observes: attaching one never changes the virtual-time schedule.
// Call before Run.
func (e *Engine) SetHostProfiler(hp HostProfiler) { e.prof = hp }
