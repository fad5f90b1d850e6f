package core

import (
	"fmt"

	"origin2000/internal/cache"
	"origin2000/internal/check"
	"origin2000/internal/critpath"
	"origin2000/internal/directory"
	"origin2000/internal/hostprof"
	"origin2000/internal/mempolicy"
	"origin2000/internal/metrics"
	"origin2000/internal/perf"
	"origin2000/internal/scenario"
	"origin2000/internal/sharing"
	"origin2000/internal/sim"
	"origin2000/internal/topology"
	"origin2000/internal/trace"
)

// BlockBytes is the coherence granularity (the Origin's 128-byte L2 block).
const BlockBytes = 128

const blockShift = 7

// NodesPerRouter is the number of nodes (Hubs) sharing one router, as on
// the Origin.
const NodesPerRouter = 2

// BlockOf returns the block number containing addr.
func BlockOf(addr uint64) uint64 { return addr >> blockShift }

// Machine is one simulated CC-NUMA multiprocessor.
type Machine struct {
	cfg      Config
	eng      *sim.Engine
	fabric   topology.Network
	pages    *mempolicy.Table
	migrator *mempolicy.Migrator
	dirs     []*directory.Directory // per-node home directories (shard-local)
	check    *check.Checker         // nil unless Config.Check
	tracer   *trace.Tracer          // nil unless Config.Trace.Enabled
	sampler  *metrics.Sampler       // nil unless Config.Metrics.Enabled
	hprof    *hostprof.Profiler     // nil unless Config.HostProf
	critrec  *critpath.Recorder     // nil unless Config.CritPath
	sharing  *sharing.Observer      // nil unless Config.Sharing.Enabled
	procs    []*Proc
	mapping  topology.Mapping

	numNodes   int
	numRouters int

	hubs    []sim.Resource
	mems    []sim.Resource
	routers []sim.Resource
	metas   []sim.Resource

	cycle     sim.Time // one processor cycle
	nextAddr  uint64
	nodePages []int       // pages homed per node (for NodeMemBytes spill)
	maxNodePg int         // 0 = unbounded
	arrays    *arrayIndex // per-allocation attribution (nil = off)

	// placeFn is the first-touch placement hook passed to Table.Resolve,
	// built once so the hot path never allocates a closure.
	placeFn func(choice int) int

	ckpt      *ckptState    // nil unless Config.Checkpoint is armed
	syncSnaps []syncSnapReg // registered sync-primitive state providers
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	cfg.normalize()
	numNodes := (cfg.Procs + cfg.ProcsPerNode - 1) / cfg.ProcsPerNode
	if cfg.ForceNodes > numNodes {
		numNodes = cfg.ForceNodes
	}
	numRouters := (numNodes + NodesPerRouter - 1) / NodesPerRouter
	// The scenario declares the interconnect and the directory's sharer
	// format. normalize validated it; the default spec builds exactly the
	// machine New hard-coded before scenarios existed.
	spec := cfg.ScenarioSpec()
	dirFormat, err := spec.Format()
	if err != nil {
		panic("core: " + err.Error()) // unreachable: normalize validated
	}
	m := &Machine{
		cfg:        cfg,
		eng:        sim.NewEngine(cfg.Procs, cfg.Quantum),
		fabric:     spec.Network(numRouters),
		dirs:       make([]*directory.Directory, numNodes),
		numNodes:   numNodes,
		numRouters: numRouters,
		hubs:       make([]sim.Resource, numNodes),
		mems:       make([]sim.Resource, numNodes),
		routers:    make([]sim.Resource, numRouters),
		cycle:      sim.Time(1_000_000 / cfg.ClockMHz), // ps per cycle
		nodePages:  make([]int, numNodes),
	}
	for i := range m.hubs {
		m.hubs[i].Name = fmt.Sprintf("hub%d", i)
		m.mems[i].Name = fmt.Sprintf("mem%d", i)
		m.dirs[i] = directory.NewWithFormat(dirFormat, cfg.Procs)
	}
	for i := range m.routers {
		m.routers[i].Name = fmt.Sprintf("router%d", i)
	}
	if n := m.fabric.NumMetarouters(); n > 0 {
		m.metas = make([]sim.Resource, n)
		for i := range m.metas {
			m.metas[i].Name = fmt.Sprintf("meta%d", i)
		}
	}
	if cfg.MigrationThreshold > 0 {
		m.migrator = mempolicy.NewMigrator(numNodes, cfg.MigrationThreshold)
	}
	m.pages = mempolicy.NewTable(numNodes, cfg.Placement, m.migrator)
	m.pages.OnRemap = m.pageRemapped
	if cfg.NodeMemBytes > 0 {
		m.maxNodePg = int(cfg.NodeMemBytes / mempolicy.PageBytes)
		if m.maxNodePg < 1 {
			m.maxNodePg = 1
		}
	}
	m.placeFn = m.spill
	m.mapping = cfg.Mapping
	if m.mapping == nil {
		m.mapping = topology.Linear(cfg.Procs)
	}
	if len(m.mapping) != cfg.Procs || !m.mapping.Valid() {
		panic("core: mapping must be a permutation of the processor ids")
	}
	// A resuming machine replays the prefix with observers muted: they are
	// not constructed here, and every observer call site is nil-gated, so
	// the replayed schedule is the recorded one. The resume proof rebuilds
	// and restores them at the recorded quiescent point (see unmute).
	resuming := cfg.Checkpoint.Resume != nil
	if cfg.Check && !resuming {
		m.check = check.New(cfg.Procs, &multiDir{m: m})
	}
	if cfg.Trace.Enabled && !resuming {
		m.tracer = trace.New(cfg.Procs, cfg.Trace)
		m.attachTracer()
	}
	if cfg.Metrics.Enabled && !resuming {
		m.sampler = metrics.New(cfg.Procs, cfg.Metrics)
	}
	if cfg.Sharing.Enabled && !resuming {
		m.sharing = sharing.New(cfg.Procs, numNodes)
	}
	m.procs = make([]*Proc, cfg.Procs)
	for i := range m.procs {
		phys := m.mapping[i]
		node := phys / cfg.ProcsPerNode
		m.procs[i] = &Proc{
			m:        m,
			sp:       m.eng.Proc(i),
			node:     node,
			router:   node / NodesPerRouter,
			cache:    cache.New(cfg.Cache),
			prefetch: make(map[uint64]sim.Time),
		}
		if m.check != nil {
			m.check.AttachCache(i, m.procs[i].cache)
		}
	}
	m.setupShards()
	// The host-time profiler sizes its lanes from the engine's final worker
	// count, so it attaches after setupShards. Both it and the critical-path
	// recorder are built even when resuming: neither can perturb the
	// schedule (hostprof records host time one-way, critpath records
	// virtual-time data inside the serialized barrier protocol), so — unlike
	// the muted observers above — the replayed prefix profiles and records
	// like any other run.
	if cfg.HostProf {
		m.hprof = hostprof.New(m.eng.Workers())
		m.eng.SetHostProfiler(m.hprof)
	}
	if cfg.CritPath {
		m.critrec = critpath.NewRecorder(cfg.Procs)
	}
	m.initCheckpoint()
	return m
}

// Config returns the machine's configuration (normalized).
func (m *Machine) Config() Config { return m.cfg }

// NumProcs reports the processor count.
func (m *Machine) NumProcs() int { return m.cfg.Procs }

// NumNodes reports the node (Hub) count.
func (m *Machine) NumNodes() int { return m.numNodes }

// Fabric exposes the router interconnect.
func (m *Machine) Fabric() topology.Network { return m.fabric }

// Scenario returns the machine's normalized scenario spec.
func (m *Machine) Scenario() scenario.Spec { return m.cfg.ScenarioSpec() }

// Cycles converts processor cycles to virtual time at the machine's clock.
func (m *Machine) Cycles(n int64) sim.Time { return sim.Time(n) * m.cycle }

// Directories exposes the per-node coherence directories, indexed by home
// node (test/diagnostic use).
func (m *Machine) Directories() []*directory.Directory { return m.dirs }

// dirAt returns the directory of the given home node.
func (m *Machine) dirAt(home int) *directory.Directory { return m.dirs[home] }

// DirectoryCheck audits every node's directory for internal-invariant
// violations (test/diagnostic use).
func (m *Machine) DirectoryCheck() error {
	for _, d := range m.dirs {
		if err := d.Check(); err != nil {
			return err
		}
	}
	return nil
}

// FaultDropInvalidation installs the lost-invalidation fault hook on every
// node's directory (verification-layer tests only).
func (m *Machine) FaultDropInvalidation(fn func(block uint64, proc int) bool) {
	for _, d := range m.dirs {
		d.FaultDropInvalidation(fn)
	}
}

// PageTable exposes page placement (test/diagnostic use).
func (m *Machine) PageTable() *mempolicy.Table { return m.pages }

// Proc returns logical processor i outside of a Run (for test drivers that
// exercise the access path directly via RunOne).
func (m *Machine) Proc(i int) *Proc { return m.procs[i] }

// Run executes body once per logical processor under virtual time.
// It can be called repeatedly; clocks and statistics accumulate across
// calls so multi-phase programs compose.
//
// With Config.Check set, Run additionally audits the coherence state after
// the processors finish and returns the checker's violations as an error.
func (m *Machine) Run(body func(p *Proc)) error {
	err := m.eng.Run(func(sp *sim.Proc) {
		body(m.procs[sp.ID()])
	})
	if err != nil {
		return err
	}
	return m.checkResult()
}

// RunOne runs body on logical processor 0 only, with the remaining
// processors idle. Useful for microbenchmarks (Table 1) and unit tests.
func (m *Machine) RunOne(body func(p *Proc)) error {
	err := m.eng.Run(func(sp *sim.Proc) {
		if sp.ID() == 0 {
			body(m.procs[0])
		}
	})
	if err != nil {
		return err
	}
	return m.checkResult()
}

// checkResult audits the coherence state when the online checker is on and
// reports its accumulated violations.
func (m *Machine) checkResult() error {
	if m.check == nil {
		return nil
	}
	m.check.Audit()
	return m.check.Err()
}

// Checker exposes the online invariant checker (nil unless Config.Check).
func (m *Machine) Checker() *check.Checker { return m.check }

// HostProf exposes the engine host-time profiler (nil unless
// Config.HostProf).
func (m *Machine) HostProf() *hostprof.Profiler { return m.hprof }

// CritPath snapshots the critical-path record (nil unless Config.CritPath).
func (m *Machine) CritPath() *critpath.Summary {
	if m.critrec == nil {
		return nil
	}
	return m.critrec.Summary()
}

// Elapsed returns the parallel completion time so far.
func (m *Machine) Elapsed() sim.Time { return m.eng.MaxTime() }

// SchedStats exposes the engine's scheduling-shape statistics — windowed
// rounds, phase-1 shard chains dispatched, commit-queue entries — for the
// benchmark harness (see sim.Engine.SchedStats).
func (m *Machine) SchedStats() (windows, shardChains, commits int64) {
	return m.eng.SchedStats()
}

// SchedShape exposes the engine's full scheduling-shape report: windowed
// rounds, chains, commits, serial commit-chain resumes, and run-ahead
// fast-path spans. Every field derives from the deterministic schedule, so
// it is bit-identical at any worker count (see sim.Engine.Shape).
func (m *Machine) SchedShape() sim.SchedShape { return m.eng.Shape() }

// Result summarizes the run for the metrics layer.
func (m *Machine) Result() perf.Result {
	r := perf.Result{
		Procs:   m.cfg.Procs,
		Elapsed: m.eng.MaxTime(),
		PerProc: make([]perf.Breakdown, m.cfg.Procs),
	}
	for i, p := range m.procs {
		r.PerProc[i] = perf.Breakdown{
			Busy:   p.sp.Stat(sim.StatBusy),
			Memory: p.sp.Stat(sim.StatMemory),
			Sync:   p.sp.Stat(sim.StatSync),
		}
		r.Counters.Add(&p.sp.Counters)
	}
	// Queueing and busy time are reported per node/router — machine-wide
	// sums hide the hot Hub that a single contended page creates — with
	// the scalar totals derived from them.
	r.HubQueuedPerNode = make([]sim.Time, len(m.hubs))
	r.MemQueuedPerNode = make([]sim.Time, len(m.mems))
	r.HubBusyPerNode = make([]sim.Time, len(m.hubs))
	for i := range m.hubs {
		r.HubQueuedPerNode[i] = m.hubs[i].Queued()
		r.MemQueuedPerNode[i] = m.mems[i].Queued()
		r.HubBusyPerNode[i] = m.hubs[i].Busy()
		r.HubQueued += r.HubQueuedPerNode[i]
		r.MemQueued += r.MemQueuedPerNode[i]
		r.HubBusy += r.HubBusyPerNode[i]
	}
	r.RouterQueuedPerRouter = make([]sim.Time, len(m.routers))
	for i := range m.routers {
		r.RouterQueuedPerRouter[i] = m.routers[i].Queued()
		r.RouterQueued += r.RouterQueuedPerRouter[i]
	}
	if len(m.metas) > 0 {
		r.MetaQueuedPerMeta = make([]sim.Time, len(m.metas))
		for i := range m.metas {
			r.MetaQueuedPerMeta[i] = m.metas[i].Queued()
			r.MetaQueued += r.MetaQueuedPerMeta[i]
		}
	}
	if m.migrator != nil {
		r.Migrations = m.migrator.Migrations
	}
	r.Trace = m.tracer
	if m.sampler != nil {
		// Close the series with an end-of-run sample so the final state is
		// always observable even when the run ends mid-interval.
		m.sampler.RecordFinal(m.machineSample(r.Elapsed))
		r.Metrics = m.sampler
	}
	return r
}

// spill returns desired, or the next node with page capacity when desired
// is full (NodeMemBytes bound).
func (m *Machine) spill(desired int) int {
	if m.maxNodePg == 0 || m.nodePages[desired] < m.maxNodePg {
		return desired
	}
	for off := 1; off < m.numNodes; off++ {
		n := (desired + off) % m.numNodes
		if m.nodePages[n] < m.maxNodePg {
			return n
		}
	}
	return desired // machine totally full: overload rather than fail
}

// homeOf resolves (and if needed assigns) the home node of a page with a
// single page-table lookup.
func (m *Machine) homeOf(page uint64, touchNode int) int {
	h, fresh := m.pages.Resolve(page, touchNode, m.placeFn)
	if fresh {
		m.nodePages[h]++
	}
	return h
}

// routerOfNode returns the router a node hangs off.
func (m *Machine) routerOfNode(node int) int { return node / NodesPerRouter }

// pageRemapped observes every move of an already-homed page — dynamic
// migration and overriding SetHome alike — via the page table's OnRemap
// hook. Each node's directory is authoritative for exactly the blocks it
// homes, so the page's directory records must follow its home; the tracer's
// per-page migration heat rides the same hook.
func (m *Machine) pageRemapped(page uint64, from, to int) {
	m.dirs[from].MovePage(page, m.dirs[to])
	if tr := m.tracer; tr != nil {
		tr.PageRemapped(page, from, to)
	}
}
