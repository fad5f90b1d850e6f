// Package origin2000 is a library-level reproduction of "Scaling
// Application Performance on a Cache-coherent Multiprocessors" (Jiang &
// Singh, ISCA 1999). It bundles a deterministic CC-NUMA machine simulator
// calibrated to the 128-processor SGI Origin2000, the study's eleven
// shared-address-space applications with their restructured variants, and
// drivers that regenerate every table and figure of the paper's evaluation.
//
// Quick start:
//
//	m := origin2000.NewMachine(origin2000.Origin2000Config(64))
//	app := origin2000.App("FFT")
//	err := app.Run(m, origin2000.Params{Size: 1 << 16, Seed: 1})
//	r := m.Result()
//	fmt.Println(m.Elapsed(), r.Average())
//
// The experiment harness:
//
//	se := origin2000.NewSession(origin2000.Scale{Div: 8, CacheDiv: 8})
//	origin2000.RunExperiment("fig2", se, os.Stdout)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// reproductions of the paper's results.
package origin2000

import (
	"io"

	"origin2000/internal/core"
	"origin2000/internal/experiments"
	"origin2000/internal/perf"
	"origin2000/internal/sim"
	"origin2000/internal/synchro"
	"origin2000/internal/topology"
	"origin2000/internal/trace"
	"origin2000/internal/workload"
)

// Machine is one simulated CC-NUMA multiprocessor.
type Machine = core.Machine

// Config describes a machine instance (processors, caches, latencies,
// placement policy, topology mapping).
type Config = core.Config

// Proc is the application-facing view of one simulated processor.
type Proc = core.Proc

// Array is a simulated shared allocation.
type Array = core.Array

// Latencies holds the memory-system timing components.
type Latencies = core.Latencies

// Params configures one application run.
type Params = workload.Params

// Workload is the interface every application implements.
type Workload = workload.App

// Result summarizes a run: elapsed time, per-processor breakdowns, and
// machine event counters.
type Result = perf.Result

// Breakdown is one processor's Busy/Memory/Sync split.
type Breakdown = perf.Breakdown

// ArrayStats attributes misses, upgrades and their stall time to one named
// allocation — the introspection the paper's Section 8 wished the real
// machine had. Machine.ArrayStats folds them from the tracer's per-page
// heat, so they need Config.Trace enabled.
type ArrayStats = core.ArrayStats

// PhaseBreakdown is the cross-processor time total of one phase labeled
// with Proc.SetPhase — the pixie/prof-style routine attribution the paper
// used to locate bottlenecks.
type PhaseBreakdown = core.PhaseBreakdown

// Time is a virtual time or duration in picoseconds.
type Time = sim.Time

// TraceOptions configures the virtual-time event tracer on Config.Trace:
// per-processor ring buffers (lossless when asked), Perfetto export, and
// per-page/per-sync attribution, all without moving a single virtual clock.
type TraceOptions = trace.Options

// Tracer is a machine's event tracer (Machine.Tracer, nil unless enabled).
type Tracer = trace.Tracer

// TraceEvent is one recorded virtual-time event.
type TraceEvent = trace.Event

// Scale divides problem sizes and the cache relative to the paper.
type Scale = experiments.Scale

// Session caches sequential baselines across experiments.
type Session = experiments.Session

// Mapping assigns logical processes to physical processors.
type Mapping = topology.Mapping

// Barrier is a reusable all-processor barrier.
type Barrier = synchro.Barrier

// Lock is a FIFO mutual-exclusion lock.
type Lock = synchro.Lock

// TaskPool is a distributed task queue with stealing.
type TaskPool = synchro.TaskPool

// NewMachine builds a machine from cfg.
func NewMachine(cfg Config) *Machine { return core.New(cfg) }

// Origin2000Config returns the paper's machine at the given processor
// count: 2 processors per Hub, 4MB 2-way caches, hypercube routers with
// metarouters past 64 processors, Table 1 latencies.
func Origin2000Config(procs int) Config { return core.Origin2000(procs) }

// Apps lists the study's eleven applications in the paper's order.
func Apps() []Workload { return experiments.Apps() }

// App returns the named application (e.g. "FFT", "Barnes"), or nil.
func App(name string) Workload { return experiments.AppByName(name) }

// NewSession creates an experiment session at the given scale.
func NewSession(s Scale) *Session { return experiments.NewSession(s) }

// RunExperiment regenerates one of the paper's tables or figures by name
// ("table1".."table3", "fig2".."fig10", "sec61".."sec72", or "all").
func RunExperiment(name string, se *Session, w io.Writer) error {
	return experiments.Run(name, se, w)
}

// ExperimentNames lists the runnable experiments.
func ExperimentNames() []string { return experiments.Names() }

// Synchronization constructors, exposed for programs written directly
// against the machine API.
var (
	NewBarrier  = synchro.NewBarrier
	NewLock     = synchro.NewLock
	NewTaskPool = synchro.NewTaskPool
)

// Mapping strategies from the paper's Section 7.1.
var (
	LinearMapping       = topology.Linear
	RandomMapping       = topology.Random
	GrayPairsMapping    = topology.GrayPairs
	SplitPairsMapping   = topology.SplitPairs
	PairedRandomMapping = topology.PairedRandom
)
