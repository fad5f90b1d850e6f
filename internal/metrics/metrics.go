// Package metrics is the simulator's virtual-time sampling layer: it
// snapshots per-processor execution-time breakdowns, per-node queueing and
// occupancy at the shared resources, the directory's state mix, and
// miss-class counts on a fixed virtual-time grid, producing deterministic
// time-series — the raw material for the paper's stacked breakdown figures
// and for cross-run differential attribution (origin diff).
//
// The sampler follows the internal/check and internal/trace discipline: it
// is gated by core.Config.Metrics, costs nothing but nil checks when off,
// and — because sampling only reads virtual clocks and cumulative counters,
// never advancing either — perturbs simulated time by exactly zero when on.
// Every sample is a pure function of the deterministic simulation, so the
// series are bit-identical across runs and GOMAXPROCS settings.
package metrics

import (
	"origin2000/internal/memclass"
	"origin2000/internal/sim"
)

// DefaultInterval is the sampling grid spacing when Options.Interval is
// zero: fine enough to resolve the phases of the scaled experiment runs,
// coarse enough that a 128-processor sweep stays small.
const DefaultInterval = 50 * sim.Microsecond

// Options configures the sampler (carried in core.Config.Metrics).
type Options struct {
	// Enabled turns sampling on. When false the machine never constructs a
	// sampler and the hot path pays only nil checks.
	Enabled bool
	// Interval is the virtual-time grid spacing (default DefaultInterval).
	// A processor emits at most one sample per grid cell it crosses, so
	// series are sparse when clocks jump (blocked processors do not
	// generate filler samples).
	Interval sim.Time
}

// ProcSample is one processor's cumulative state at a grid crossing. All
// time and count fields are cumulative since the start of the run; rates
// per interval are successive differences.
type ProcSample struct {
	// At is the virtual time the sample was taken (the first clock advance
	// at or past the grid boundary).
	At sim.Time `json:"at"`
	// Epoch is the grid cell index: floor(At/Interval).
	Epoch int64 `json:"epoch"`

	// The paper's three-way execution-time decomposition.
	Busy   sim.Time `json:"busy"`
	Memory sim.Time `json:"memory"`
	Sync   sim.Time `json:"sync"`

	// Memory-stall and sync-time components (see sim.Counters).
	LocalStall      sim.Time `json:"local_stall"`
	RemoteStall     sim.Time `json:"remote_stall"`
	ContentionStall sim.Time `json:"contention_stall"`
	SyncWait        sim.Time `json:"sync_wait"`
	SyncOverhead    sim.Time `json:"sync_overhead"`

	// Miss-class counts.
	Hits        int64 `json:"hits"`
	LocalMisses int64 `json:"local_misses"`
	RemoteClean int64 `json:"remote_clean"`
	RemoteDirty int64 `json:"remote_dirty"`
	Upgrades    int64 `json:"upgrades"`
}

// MachineSample is one machine-wide snapshot at a grid crossing: aggregate
// breakdowns and miss counts over all processors, the directory state mix,
// and per-node (per-router) queueing state. Queued/Busy fields are
// cumulative; Backlog fields are instantaneous (the occupancy already
// committed beyond the sample time).
type MachineSample struct {
	At    sim.Time `json:"at"`
	Epoch int64    `json:"epoch"`

	// Aggregate execution-time breakdown, summed over processors.
	Busy   sim.Time `json:"busy"`
	Memory sim.Time `json:"memory"`
	Sync   sim.Time `json:"sync"`

	// Aggregate miss-class and traffic counts, summed over processors.
	LocalMisses    int64 `json:"local_misses"`
	RemoteClean    int64 `json:"remote_clean"`
	RemoteDirty    int64 `json:"remote_dirty"`
	Upgrades       int64 `json:"upgrades"`
	Invalidations  int64 `json:"invalidations"`
	Writebacks     int64 `json:"writebacks"`
	PageMigrations int64 `json:"page_migrations"`

	// Directory state mix (incrementally maintained, O(1) to sample).
	DirShared    int `json:"dir_shared"`
	DirExclusive int `json:"dir_exclusive"`

	// Per-node Hub and memory queueing, indexed by node id.
	HubQueued  []sim.Time `json:"hub_queued"`
	HubBusy    []sim.Time `json:"hub_busy"`
	HubBacklog []sim.Time `json:"hub_backlog"`
	MemQueued  []sim.Time `json:"mem_queued"`
	MemBacklog []sim.Time `json:"mem_backlog"`
	// Per-router queueing, indexed by router id.
	RouterQueued []sim.Time `json:"router_queued"`
}

// MissCount returns the sample's cumulative counter for one shared miss
// class (internal/memclass). FetchOp operations are uncached and not
// counted by the sampler, so that class reports zero.
func (ms *MachineSample) MissCount(c memclass.Class) int64 {
	switch c {
	case memclass.Local:
		return ms.LocalMisses
	case memclass.RemoteClean:
		return ms.RemoteClean
	case memclass.RemoteDirty:
		return ms.RemoteDirty
	case memclass.Upgrade:
		return ms.Upgrades
	}
	return 0
}

// MissCount returns the processor sample's cumulative counter for one
// shared miss class, like (*MachineSample).MissCount.
func (ps *ProcSample) MissCount(c memclass.Class) int64 {
	switch c {
	case memclass.Local:
		return ps.LocalMisses
	case memclass.RemoteClean:
		return ps.RemoteClean
	case memclass.RemoteDirty:
		return ps.RemoteDirty
	case memclass.Upgrade:
		return ps.Upgrades
	}
	return 0
}

// Sampler records the time-series for one machine. All recording methods
// are called from simulated-processor goroutines, which the engine
// serializes, so no locking is needed and recording order is deterministic.
type Sampler struct {
	opts     Options
	interval sim.Time

	procNext []sim.Time // next grid boundary per processor
	machNext sim.Time   // next machine-wide grid boundary

	perProc [][]ProcSample
	machine []MachineSample
	epochs  []sim.Time
}

// New creates a sampler for procs processors.
func New(procs int, o Options) *Sampler {
	if procs < 1 {
		procs = 1
	}
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	s := &Sampler{
		opts:     o,
		interval: o.Interval,
		procNext: make([]sim.Time, procs),
		perProc:  make([][]ProcSample, procs),
		machNext: o.Interval,
	}
	for i := range s.procNext {
		s.procNext[i] = o.Interval
	}
	return s
}

// Interval returns the sampling grid spacing.
func (s *Sampler) Interval() sim.Time { return s.interval }

// Options returns the sampler's configuration.
func (s *Sampler) Options() Options { return s.opts }

// Procs reports the number of per-processor series.
func (s *Sampler) Procs() int { return len(s.perProc) }

// Due reports whether proc's clock reaching now crosses any sampling
// boundary (its own or the machine-wide one) — the hot-path check.
func (s *Sampler) Due(proc int, now sim.Time) bool {
	return now >= s.procNext[proc] || now >= s.machNext
}

// ProcDue reports whether proc's per-processor boundary has been crossed.
func (s *Sampler) ProcDue(proc int, now sim.Time) bool { return now >= s.procNext[proc] }

// MachineDue reports whether the machine-wide boundary has been crossed.
func (s *Sampler) MachineDue(now sim.Time) bool { return now >= s.machNext }

// RecordProc appends one sample to proc's series (ps.At must be set; the
// sampler stamps the epoch) and advances the processor's grid boundary past
// it, so at most one sample lands in each grid cell.
func (s *Sampler) RecordProc(proc int, ps ProcSample) {
	ps.Epoch = int64(ps.At / s.interval)
	s.procNext[proc] = sim.Time(ps.Epoch+1) * s.interval
	s.perProc[proc] = append(s.perProc[proc], ps)
}

// RecordMachine appends one machine-wide sample (ms.At must be set) and
// advances the machine grid boundary past it.
func (s *Sampler) RecordMachine(ms MachineSample) {
	ms.Epoch = int64(ms.At / s.interval)
	s.machNext = sim.Time(ms.Epoch+1) * s.interval
	s.machine = append(s.machine, ms)
}

// RecordFinal appends a final machine sample at the end of a run without
// advancing the grid, so the series always ends with the run's closing
// state. It is idempotent: a sample at an At already recorded last is
// dropped (Machine.Result may be called repeatedly).
func (s *Sampler) RecordFinal(ms MachineSample) {
	if n := len(s.machine); n > 0 && s.machine[n-1].At == ms.At {
		return
	}
	ms.Epoch = int64(ms.At / s.interval)
	s.machine = append(s.machine, ms)
}

// EpochMark records a phase boundary (a global barrier release) at the
// given virtual time. Marks partition the run into the epochs origin diff
// aligns across runs.
func (s *Sampler) EpochMark(at sim.Time) { s.epochs = append(s.epochs, at) }

// Epochs returns the recorded phase-boundary times, in recording order.
func (s *Sampler) Epochs() []sim.Time { return s.epochs }

// ProcSeries returns processor proc's sample series.
func (s *Sampler) ProcSeries(proc int) []ProcSample { return s.perProc[proc] }

// AllProcSeries returns every processor's series, indexed by processor id.
func (s *Sampler) AllProcSeries() [][]ProcSample { return s.perProc }

// MachineSeries returns the machine-wide sample series.
func (s *Sampler) MachineSeries() []MachineSample { return s.machine }

// Samples reports the total number of recorded samples (all series).
func (s *Sampler) Samples() int {
	n := len(s.machine)
	for _, ps := range s.perProc {
		n += len(ps)
	}
	return n
}
