// Package core assembles the CC-NUMA machine model: simulated processors
// with caches, directory-coherent distributed memory, a hypercube/metarouter
// interconnect, page placement and migration, prefetching, and at-memory
// fetch&op — the substrate on which the paper's applications run.
//
// Applications receive a *Proc and perform real Go computation while
// issuing simulated loads and stores against allocated Arrays; the model
// charges virtual time to the Busy/Memory/Sync buckets of the paper's
// execution-time breakdowns.
package core

import (
	"fmt"

	"origin2000/internal/cache"
	"origin2000/internal/mempolicy"
	"origin2000/internal/metrics"
	"origin2000/internal/scenario"
	"origin2000/internal/sharing"
	"origin2000/internal/sim"
	"origin2000/internal/snapshot"
	"origin2000/internal/topology"
	"origin2000/internal/trace"
)

// Latencies holds the timing components of the memory system. All values
// are virtual durations. The defaults (Origin2000Latencies) are calibrated
// so that composed transactions reproduce the paper's Table 1: local 338 ns,
// remote clean ≈656 ns, remote dirty ≈892 ns on the 64-processor machine.
type Latencies struct {
	// ProcOverhead is the processor-side cost of issuing a miss and
	// filling the line on return.
	ProcOverhead sim.Time
	// HubTime is the latency through a Hub controller (each crossing).
	HubTime sim.Time
	// HubOcc is the Hub occupancy per transaction: the serialization
	// cost that creates contention between the two processors of a node
	// and between local misses and incoming remote traffic.
	HubOcc sim.Time
	// MemTime is DRAM access latency (data or directory lookup).
	MemTime sim.Time
	// MemOcc is memory occupancy per transaction.
	MemOcc sim.Time
	// RouterTime is the latency per router-to-router hop.
	RouterTime sim.Time
	// RouterOcc is the occupancy at the endpoint routers of a path.
	RouterOcc sim.Time
	// MetaExtra is extra latency when a path crosses a metarouter.
	MetaExtra sim.Time
	// MetaOcc is metarouter occupancy per crossing.
	MetaOcc sim.Time
	// RemoteExtra is a fixed extra cost per remote transaction (protocol
	// engines of SCI-based machines; zero on the Origin).
	RemoteExtra sim.Time
	// CacheResponse is the owning cache's intervention response time.
	CacheResponse sim.Time
	// FetchOpTime is the at-memory fetch&op execution time.
	FetchOpTime sim.Time
	// FetchOpOcc is memory occupancy of a fetch&op.
	FetchOpOcc sim.Time
	// InvalOcc is Hub occupancy per invalidation message sent.
	InvalOcc sim.Time
	// WritebackOcc is the occupancy a writeback adds at Hubs and memory.
	WritebackOcc sim.Time
	// PageMovePerBlock is the per-block occupancy when a page migrates.
	PageMovePerBlock sim.Time
	// MigrationFreeze is latency charged to the access triggering a
	// migration (TLB shootdown and copy initiation).
	MigrationFreeze sim.Time
}

// Lookahead returns the minimum latency of any cross-node interaction: a
// request must traverse the requester's Hub, at least one router hop, and
// the home Hub before it can touch another node's state. This is the
// conservative-parallel engine's lookahead: state owned by another shard
// cannot be affected sooner than Lookahead after an operation issues, so a
// window no wider than Lookahead could never miss a cross-shard hazard.
// In practice the engine runs wider windows (Config.Quantum) and instead
// serializes every cross-shard operation through the window's commit
// phase, which preserves exactness at any width; Lookahead is kept as the
// documented lower bound the window is clamped to.
func (l Latencies) Lookahead() sim.Time {
	return l.HubTime + l.RouterTime + l.HubTime
}

// Origin2000Latencies models the paper's machine (Table 1 row 1).
func Origin2000Latencies() Latencies {
	return Latencies{
		ProcOverhead:     58 * sim.Nanosecond,
		HubTime:          50 * sim.Nanosecond,
		HubOcc:           40 * sim.Nanosecond,
		MemTime:          180 * sim.Nanosecond,
		MemOcc:           60 * sim.Nanosecond,
		RouterTime:       50 * sim.Nanosecond,
		RouterOcc:        16 * sim.Nanosecond,
		MetaExtra:        40 * sim.Nanosecond,
		MetaOcc:          20 * sim.Nanosecond,
		RemoteExtra:      0,
		CacheResponse:    130 * sim.Nanosecond,
		FetchOpTime:      60 * sim.Nanosecond,
		FetchOpOcc:       30 * sim.Nanosecond,
		InvalOcc:         24 * sim.Nanosecond,
		WritebackOcc:     48 * sim.Nanosecond,
		PageMovePerBlock: 80 * sim.Nanosecond,
		MigrationFreeze:  50 * sim.Microsecond,
	}
}

// Config describes one machine instance.
type Config struct {
	// Procs is the number of processors (the paper uses 32..128).
	Procs int
	// ProcsPerNode is processors per Hub (2 on the Origin; 1 for the
	// Section 7.2 experiments).
	ProcsPerNode int
	// ClockMHz is the processor frequency (195 for the R10000).
	ClockMHz int
	// Cache is the per-processor cache geometry.
	Cache cache.Config
	// Lat holds the memory-system timing components.
	Lat Latencies
	// Placement is the default page policy for pages the application
	// does not place explicitly.
	Placement mempolicy.Kind
	// MigrationThreshold enables dynamic page migration when > 0.
	MigrationThreshold int
	// Mapping maps logical process i to physical processor Mapping[i];
	// nil means linear.
	Mapping topology.Mapping
	// Quantum is the engine's window width W, fixed for the whole run
	// (0 selects sim.DefaultQuantum). The quantum ablation varies it.
	Quantum sim.Time
	// MaxPrefetch bounds outstanding prefetches per processor (default 8).
	MaxPrefetch int
	// IgnorePlacement makes the Array.Place* calls no-ops so the default
	// Placement policy governs every page — the "Round Robin" columns of
	// Table 3 run the same application code with this set.
	IgnorePlacement bool
	// Check enables the online coherence-invariant checker
	// (internal/check): every directory transaction and cache fill/evict
	// is verified against a mirrored protocol state and a golden memory
	// image, and Run fails with the violations found. Off by default; the
	// demand path pays only a nil check when disabled.
	Check bool
	// Trace configures the virtual-time event tracer (internal/trace):
	// per-processor event rings, sharing heatmaps, latency histograms, and
	// Perfetto export. It follows the same discipline as Check — off by
	// default, nothing but nil checks on the hot path when disabled, and
	// zero simulated-time perturbation when enabled.
	Trace trace.Options
	// Metrics configures the virtual-time sampler (internal/metrics):
	// per-processor breakdown series, per-node queueing series, directory
	// state mix and miss-class rates on a fixed virtual-time grid. Same
	// contract as Check and Trace — zero cost off, zero timing
	// perturbation on, bit-identical series across runs and GOMAXPROCS.
	Metrics metrics.Options
	// Engine selects the execution schedule: "serial" (the default — the
	// windowed reference schedule on one host worker) or "parallel" (the
	// identical schedule with the window's shard phase spread over
	// Workers host workers). The two are bit-identical by construction;
	// see DESIGN.md §11.
	Engine string
	// Workers bounds the host workers of the parallel engine (0 means
	// GOMAXPROCS). Ignored under Engine "serial". Any value produces
	// bit-identical results; it only changes wall-clock speed.
	Workers int
	// HostProf enables the engine host-time profiler (internal/hostprof):
	// per-worker timelines of window phases, steal attempts, serial-phase
	// shares and turnover latency, plus Perfetto export. Gating contract as
	// Check/Trace/Metrics — zero cost off, and schedule-neutral on: host
	// timing is recorded but never feeds back, so simulated results are
	// bit-identical with it on or off. Unlike Check and Metrics it does NOT
	// force workers=1 — profiling the parallel engine is its purpose.
	HostProf bool
	// CritPath enables the virtual-time critical-path recorder
	// (internal/critpath): per-processor snapshots at every full-machine
	// barrier arrival and release, embedded in run artifacts and analyzed
	// by origin diff -critpath. Recording happens inside the serialized
	// barrier protocol and reads virtual-time data only, so it is
	// bit-identical at any worker count and perturbs nothing.
	CritPath bool
	// Sharing configures the per-block sharing-pattern classifier
	// (internal/sharing): online classification of every cached block as
	// read-only, private, migratory, producer-consumer or widely-shared,
	// word-granularity true- vs false-sharing splits of coherence misses,
	// and per-page/per-node home attribution of remote misses. Same
	// contract as Check and Metrics — zero cost off, zero virtual-time
	// perturbation on, forces one host worker, bit-identical output
	// across runs, engines and requested worker counts.
	Sharing sharing.Options
	// Checkpoint configures originckpt snapshots at quiescent window
	// boundaries and replay-based resume; see internal/snapshot and
	// DESIGN.md §13. Zero value disables both.
	Checkpoint CheckpointConfig
	// Scenario declares the machine: interconnect topology, directory
	// sharer-representation format and latency preset (DESIGN.md §16).
	// nil selects the default scenario — the hard-coded Origin shape every
	// pre-scenario run used — and stays bit-identical to it. The pointer
	// is omitted from JSON when nil so default snapshot headers are
	// byte-for-byte what they were before scenarios existed.
	Scenario *scenario.Spec `json:",omitempty"`
}

// CheckpointConfig controls checkpointing and resume for one run.
type CheckpointConfig struct {
	// Every emits a snapshot at the first quiescent window boundary at or
	// after each multiple of this virtual duration. Zero disables capture.
	Every sim.Time
	// Dir receives one ckpt-NNNNNN.originckpt file per snapshot when
	// non-empty.
	Dir string
	// Spec is recorded verbatim in every snapshot header so drivers can
	// rebuild the run.
	Spec snapshot.RunSpec
	// Sink, when set, receives every captured snapshot (after Dir, if both
	// are set). A Sink error aborts the run. Not serializable.
	Sink func(*snapshot.Snapshot) error `json:"-"`
	// Resume, when set, makes the machine re-execute deterministically, its
	// observers recording as on any run, until the snapshot's quiescent
	// point, prove every section but the header digests alike, and
	// continue. The configured observers must be the snapshot's
	// (experiments.ValidateResume refuses a mismatch). Not serializable.
	Resume *snapshot.Snapshot `json:"-"`
}

// Origin2000 returns the configuration of the paper's machine with the
// given processor count.
func Origin2000(procs int) Config {
	return Config{
		Procs:        procs,
		ProcsPerNode: 2,
		ClockMHz:     195,
		Cache:        cache.Origin2000L2,
		Lat:          Origin2000Latencies(),
		Placement:    mempolicy.FirstTouch,
		MaxPrefetch:  8,
	}
}

// Table1Latencies returns the latency preset of one of Table 1's machines,
// named as in scenario.LatencyPresets. Only the components that
// differentiate the rows change: local-memory path, remote protocol
// overhead, and intervention cost. It panics on any other name;
// scenario.Spec.Validate rejects those first.
func Table1Latencies(preset string) Latencies {
	l := Origin2000Latencies()
	switch preset {
	case "origin2000":
	case "exemplar-x":
		// Local 450, remote ~3:1 clean, 5:1 dirty.
		l.ProcOverhead = 90 * sim.Nanosecond
		l.HubTime = 70 * sim.Nanosecond
		l.MemTime = 220 * sim.Nanosecond
		l.RemoteExtra = 500 * sim.Nanosecond
		l.CacheResponse = 400 * sim.Nanosecond
	case "numaliine":
		// Local 240, remote 10:1 clean, 14:1 dirty (SCI ring).
		l.ProcOverhead = 40 * sim.Nanosecond
		l.HubTime = 30 * sim.Nanosecond
		l.MemTime = 140 * sim.Nanosecond
		l.RemoteExtra = 1900 * sim.Nanosecond
		l.CacheResponse = 800 * sim.Nanosecond
	case "hal-s1":
		// Local 240, remote 5:1 clean, 6:1 dirty.
		l.ProcOverhead = 40 * sim.Nanosecond
		l.HubTime = 30 * sim.Nanosecond
		l.MemTime = 140 * sim.Nanosecond
		l.RemoteExtra = 600 * sim.Nanosecond
		l.CacheResponse = 200 * sim.Nanosecond
	case "numa-q":
		// Local 240, remote 10:1 clean (dirty N/A in the paper).
		l.ProcOverhead = 40 * sim.Nanosecond
		l.HubTime = 30 * sim.Nanosecond
		l.MemTime = 140 * sim.Nanosecond
		l.RemoteExtra = 2000 * sim.Nanosecond
		l.CacheResponse = 800 * sim.Nanosecond
	default:
		panic(fmt.Sprintf("core: unknown latency preset %q", preset))
	}
	return l
}

// ScenarioSpec returns the machine's normalized scenario (the default
// scenario when Config.Scenario is nil).
func (c *Config) ScenarioSpec() scenario.Spec {
	if c.Scenario != nil {
		return c.Scenario.Normalized()
	}
	return scenario.Default()
}

// ScenarioHash returns the content hash of the machine's scenario. It is
// stamped into checkpoint headers and bench snapshot rows; resume refuses
// a snapshot whose hash differs from the requested run's.
func (c *Config) ScenarioHash() string { return c.ScenarioSpec().Hash() }

// Validate checks the configuration against its scenario: kinds and
// parameters must be known, and the processor count must not exceed the
// chosen directory format's capacity — the Sharers bit vector indexes
// s[p>>6], so an oversized machine would corrupt sharer state instead of
// failing loudly. New panics on the same conditions; Validate lets
// drivers report them as errors first.
func (c *Config) Validate() error {
	procs := c.Procs
	if procs < 1 {
		procs = 1
	}
	return c.ScenarioSpec().Validate(procs)
}

func (c *Config) normalize() {
	if err := c.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	if c.Procs < 1 {
		c.Procs = 1
	}
	if c.ProcsPerNode < 1 {
		c.ProcsPerNode = 2
	}
	if c.ClockMHz <= 0 {
		c.ClockMHz = 195
	}
	if c.Cache.SizeBytes == 0 {
		c.Cache = cache.Origin2000L2
	}
	if c.Lat == (Latencies{}) {
		// The scenario's latency preset fills in only when the caller left
		// Lat zero, so explicitly calibrated configs are never overridden.
		c.Lat = Table1Latencies(c.ScenarioSpec().Latency)
	}
	if c.MaxPrefetch <= 0 {
		c.MaxPrefetch = 8
	}
	switch c.Engine {
	case "", "serial":
		c.Engine = "serial"
	case "parallel":
	default:
		panic(fmt.Sprintf("core: unknown engine %q (want serial or parallel)", c.Engine))
	}
	// The window may not be narrower than the machine's cross-node
	// lookahead; see Latencies.Lookahead.
	if c.Quantum > 0 && c.Quantum < c.Lat.Lookahead() {
		c.Quantum = c.Lat.Lookahead()
	}
}
