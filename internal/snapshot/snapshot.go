// Package snapshot defines the originckpt/v1 checkpoint format: a full
// serialization of the simulated machine's state at a quiescent scheduling
// point (a round boundary with no open global section), plus the state of
// whichever observers — checker, tracer, metrics sampler, sharing
// classifier — the run had enabled.
//
// Goroutine stacks cannot be serialized, so "restore" is replay-based: a
// resumed run rebuilds the machine and its observers from the recorded
// configuration, deterministically re-executes the prefix with the
// observers recording, and proves at the recorded quiescent point that
// every re-captured section but the header equals the snapshot byte for
// byte. Every section is therefore a proof obligation; none is ever
// written back into a live object. See DESIGN.md §13.
package snapshot

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"origin2000/internal/cache"
	"origin2000/internal/check"
	"origin2000/internal/directory"
	"origin2000/internal/mempolicy"
	"origin2000/internal/metrics"
	"origin2000/internal/sharing"
	"origin2000/internal/sim"
	"origin2000/internal/trace"
)

// Version is the format version this package reads and writes.
const Version = 1

// RunSpec identifies the program whose execution a snapshot belongs to, in
// the vocabulary of the experiments layer: enough for a driver to rebuild
// the identical run (the rest of the machine shape lives in Header.Config).
type RunSpec struct {
	App      string `json:"app,omitempty"`
	Size     int    `json:"size,omitempty"`
	Variant  string `json:"variant,omitempty"`
	Prefetch bool   `json:"prefetch,omitempty"`
	Div      int    `json:"div,omitempty"`
	CacheDiv int    `json:"cache_div,omitempty"`
	Steps    int    `json:"steps,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// Lock and Barrier record the synchronization-algorithm selections
	// (synchro.LockAlgorithm / synchro.BarrierAlgorithm as integers), so
	// the spec suffices to rebuild the run's workload.Params.
	Lock    int `json:"lock,omitempty"`
	Barrier int `json:"barrier,omitempty"`
	// Scenario and ScenarioHash identify the machine the run executed on
	// (scenario.Spec name and content hash). The capturing machine stamps
	// the hash when the driver left it empty; resume refuses a snapshot
	// whose hash differs from the requested machine's. Empty means the
	// default scenario — headers written before scenarios existed stay
	// valid and are treated as the default machine's hash.
	Scenario     string `json:"scenario,omitempty"`
	ScenarioHash string `json:"scenario_hash,omitempty"`
}

// Header is the snapshot's self-describing first section.
type Header struct {
	Version int    `json:"version"`
	Procs   int    `json:"procs"`
	Engine  string `json:"engine,omitempty"`
	// Workers is the effective host-worker count the capturing run used.
	Workers int `json:"workers,omitempty"`
	// WorkersForced records that the checker, the metrics sampler or the
	// sharing classifier forced the engine to one worker (their observer
	// hooks read cross-shard state at event time). A resume of such a run
	// must not request more workers.
	WorkersForced bool `json:"workers_forced,omitempty"`
	// QuiesSeq is the engine's round-open counter at the capture point; the
	// schedule is deterministic, so a replay reaches the same state exactly
	// when its counter reaches this value.
	QuiesSeq int64 `json:"quies_seq"`
	// VirtualTime is the smallest runnable processor clock at the capture
	// point (the opening round's horizon).
	VirtualTime sim.Time `json:"virtual_time"`
	Spec        RunSpec  `json:"spec"`
	// Config is the capturing machine's full core.Config, verbatim.
	Config json.RawMessage `json:"config,omitempty"`
}

// Breakdown mirrors perf.Breakdown with stable JSON tags.
type Breakdown struct {
	Busy   sim.Time `json:"busy"`
	Memory sim.Time `json:"memory"`
	Sync   sim.Time `json:"sync"`
}

// PrefetchEntry is one in-flight prefetch in a ProcSnap.
type PrefetchEntry struct {
	Block uint64   `json:"block"`
	Ready sim.Time `json:"ready"`
}

// PhaseTotal is one accumulated phase-attribution bucket in a ProcSnap.
type PhaseTotal struct {
	Name string `json:"name"`
	Breakdown
}

// ProcSnap is the machine-level state of one processor: outstanding
// prefetches (block-sorted map plus issue-order FIFO) and phase-attribution
// state. The scheduler-level per-processor state (clock, counters, shard)
// lives in the engine section.
type ProcSnap struct {
	Prefetch  []PrefetchEntry `json:"prefetch,omitempty"`
	PrefetchQ []uint64        `json:"prefetch_q,omitempty"`
	Phase     string          `json:"phase,omitempty"`
	PhaseMark Breakdown       `json:"phase_mark"`
	PhaseAcc  []PhaseTotal    `json:"phase_acc,omitempty"`
}

// ResourcesSnap bundles every shared-resource timeline.
type ResourcesSnap struct {
	Hubs    []sim.ResourceSnap `json:"hubs"`
	Mems    []sim.ResourceSnap `json:"mems"`
	Routers []sim.ResourceSnap `json:"routers"`
	Metas   []sim.ResourceSnap `json:"metas,omitempty"`
}

// MemorySnap is the machine's allocation state.
type MemorySnap struct {
	NextAddr  uint64 `json:"next_addr"`
	NodePages []int  `json:"node_pages"`
}

// SyncRecord is the serialized host state of one synchronization primitive,
// keyed by the primitive's identifying simulated address and kind label.
// Registration order is deterministic (primitives are constructed by
// deterministic program code), so the slice order is too.
type SyncRecord struct {
	Base  uint64          `json:"base"`
	Kind  string          `json:"kind"`
	State json.RawMessage `json:"state"`
}

// Snapshot is one decoded originckpt/v1 checkpoint. Observer sections are
// nil when the capturing run had them disabled.
type Snapshot struct {
	Header      Header
	Engine      sim.EngineSnap
	Procs       []ProcSnap
	Caches      []cache.Snap
	Directories []directory.Snap
	MemPolicy   mempolicy.TableSnap
	Resources   ResourcesSnap
	Memory      MemorySnap
	Syncs       []SyncRecord
	Checker     *check.Snap
	Tracer      *trace.Snap
	Metrics     *metrics.Snap
	Sharing     *sharing.Snap
}

// FormatError reports a malformed or corrupted checkpoint, naming the
// section the problem was found in.
type FormatError struct {
	Section string
	Msg     string
}

func (e *FormatError) Error() string {
	if e.Section == "" {
		return "snapshot: " + e.Msg
	}
	return fmt.Sprintf("snapshot: section %q: %s", e.Section, e.Msg)
}

// DivergenceError reports that a replayed run's re-captured state did not
// match the snapshot it was resuming from — the resume-equivalence proof
// failed. It is raised as a panic from the engine's quiescent hook and
// recovered by the resume driver.
type DivergenceError struct {
	// Section is the first snapshot section whose bytes differed.
	Section string
	// Seq is the quiescent point the proof ran at.
	Seq int64
	// At is the virtual time of that point.
	At sim.Time
	// Msg carries additional context.
	Msg string
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("snapshot: resume diverged at quiescent point %d (t=%v): section %q: %s",
		e.Seq, e.At, e.Section, e.Msg)
}

// ProveEqual is the resume proof: it byte-compares every section of live
// and recorded except the header, which records how the run was driven
// (engine, worker count, checkpoint directory) rather than what it
// computed, and returns the name of the first differing section, or
// ok=true when all match. A section present on one side only differs.
// Both sides are re-marshaled, so slice identity and backing arrays never
// matter, only content.
func ProveEqual(live, recorded *Snapshot) (section string, ok bool) {
	ls, rs := live.sections(), recorded.sections()
	for i := 1; i < len(ls); i++ { // ls[0] is the header
		if !sameJSON(ls[i].ptr, rs[i].ptr) {
			return ls[i].name, false
		}
	}
	return "", true
}

// Diff byte-compares every section of two snapshots, the header first,
// returning the name of the first differing section, or ok=true when the
// snapshots are equivalent.
func Diff(a, b *Snapshot) (section string, ok bool) {
	if !sameJSON(&a.Header, &b.Header) {
		return secHeader, false
	}
	return ProveEqual(a, b)
}

// sameJSON reports whether a and b marshal to the same bytes; a value
// that does not marshal differs from everything else. Deeply equal values
// marshal alike, so that cheaper test answers first, and only values it
// tells apart (a nil slice and an empty one, say) are marshaled.
func sameJSON(a, b any) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	ab, err := json.Marshal(a)
	if err != nil {
		return false
	}
	bb, err := json.Marshal(b)
	return err == nil && string(ab) == string(bb)
}

// Validate structurally checks a decoded snapshot: version, cross-section
// processor counts, and per-section shape invariants. It returns a
// FormatError naming the offending section.
func (s *Snapshot) Validate() error {
	h := &s.Header
	if h.Version != Version {
		return &FormatError{secHeader, fmt.Sprintf("version %d, want %d", h.Version, Version)}
	}
	if h.Procs <= 0 || h.Procs > directory.MaxProcs {
		return &FormatError{secHeader, fmt.Sprintf("processor count %d outside [1, %d]", h.Procs, directory.MaxProcs)}
	}
	if h.QuiesSeq <= 0 {
		return &FormatError{secHeader, fmt.Sprintf("non-positive quiescent sequence %d", h.QuiesSeq)}
	}
	if len(s.Engine.Procs) != h.Procs {
		return &FormatError{secEngine, fmt.Sprintf("%d processors, header says %d", len(s.Engine.Procs), h.Procs)}
	}
	for i, p := range s.Engine.Procs {
		if p.ID != i {
			return &FormatError{secEngine, fmt.Sprintf("processor %d records id %d", i, p.ID)}
		}
	}
	if len(s.Procs) != h.Procs {
		return &FormatError{secProcs, fmt.Sprintf("%d processors, header says %d", len(s.Procs), h.Procs)}
	}
	for i := range s.Procs {
		for j := 1; j < len(s.Procs[i].Prefetch); j++ {
			if s.Procs[i].Prefetch[j].Block <= s.Procs[i].Prefetch[j-1].Block {
				return &FormatError{secProcs, fmt.Sprintf("processor %d prefetch set not block-sorted", i)}
			}
		}
	}
	if len(s.Caches) != h.Procs {
		return &FormatError{secCaches, fmt.Sprintf("%d caches, header says %d processors", len(s.Caches), h.Procs)}
	}
	for i, c := range s.Caches {
		n := c.Sets * c.Assoc
		if c.Sets <= 0 || c.Assoc <= 0 || len(c.Tags) != n || len(c.State) != n || len(c.Age) != n {
			return &FormatError{secCaches, fmt.Sprintf("cache %d geometry %dx%d does not match its arrays", i, c.Sets, c.Assoc)}
		}
	}
	for d, ds := range s.Directories {
		for j := 1; j < len(ds.Blocks); j++ {
			if ds.Blocks[j].Block <= ds.Blocks[j-1].Block {
				return &FormatError{secDirectories, fmt.Sprintf("directory %d blocks not sorted", d)}
			}
		}
	}
	for j := 1; j < len(s.MemPolicy.Homes); j++ {
		if s.MemPolicy.Homes[j].Page <= s.MemPolicy.Homes[j-1].Page {
			return &FormatError{secMemPolicy, "page homes not sorted"}
		}
	}
	if len(s.Resources.Hubs) != len(s.Resources.Mems) {
		return &FormatError{secResources, fmt.Sprintf("%d hubs but %d memories", len(s.Resources.Hubs), len(s.Resources.Mems))}
	}
	if len(s.Memory.NodePages) != len(s.Resources.Hubs) {
		return &FormatError{secMemory, fmt.Sprintf("%d node page counts, %d nodes", len(s.Memory.NodePages), len(s.Resources.Hubs))}
	}
	if s.Checker != nil && len(s.Checker.Clocks) != h.Procs {
		return &FormatError{secChecker, fmt.Sprintf("%d clocks, header says %d processors", len(s.Checker.Clocks), h.Procs)}
	}
	if s.Metrics != nil && len(s.Metrics.PerProc) != h.Procs {
		return &FormatError{secMetrics, fmt.Sprintf("%d per-processor series, header says %d processors", len(s.Metrics.PerProc), h.Procs)}
	}
	if s.Sharing != nil {
		if s.Sharing.Procs != h.Procs {
			return &FormatError{secSharing, fmt.Sprintf("%d processors, header says %d", s.Sharing.Procs, h.Procs)}
		}
		if len(s.Sharing.NodeRemote) != s.Sharing.Nodes {
			return &FormatError{secSharing, fmt.Sprintf("%d node counters, section says %d nodes", len(s.Sharing.NodeRemote), s.Sharing.Nodes)}
		}
		for j := 1; j < len(s.Sharing.Blocks); j++ {
			if s.Sharing.Blocks[j].Block <= s.Sharing.Blocks[j-1].Block {
				return &FormatError{secSharing, "blocks not sorted"}
			}
		}
	}
	return nil
}

// StateViolation is one coherence-invariant breach found by AuditState.
type StateViolation struct {
	Block uint64
	Proc  int
	Msg   string
}

func (v StateViolation) String() string {
	return fmt.Sprintf("block %#x p%d: %s", v.Block, v.Proc, v.Msg)
}

// AuditState checks directory↔cache agreement on the serialized state
// alone — no machine, no replay: every cached copy must be backed by its
// home directory's record and vice versa. A healthy machine snapshots
// clean; a snapshot taken after a protocol fault (a lost invalidation, a
// stale owner) fails, which is what checkpoint bisection binary-searches
// on: the audit verdict is monotone in time once state has gone bad.
func AuditState(s *Snapshot) []StateViolation {
	type holder struct {
		proc  int
		state cache.State
	}
	held := map[uint64][]holder{}
	for p := range s.Caches {
		c := &s.Caches[p]
		for i, st := range c.State {
			if st != cache.Invalid {
				held[c.Tags[i]] = append(held[c.Tags[i]], holder{p, st})
			}
		}
	}
	dir := map[uint64]directory.BlockSnap{}
	var out []StateViolation
	for _, d := range s.Directories {
		for _, b := range d.Blocks {
			if _, dup := dir[b.Block]; dup {
				out = append(out, StateViolation{b.Block, -1, "recorded by two home directories"})
			}
			dir[b.Block] = b
		}
	}
	blocks := make([]uint64, 0, len(held)+len(dir))
	seen := map[uint64]bool{}
	for b := range held {
		blocks = append(blocks, b)
		seen[b] = true
	}
	for b := range dir {
		if !seen[b] {
			blocks = append(blocks, b)
		}
	}
	sortU64(blocks)
	for _, blk := range blocks {
		e, tracked := dir[blk]
		hs := held[blk]
		if !tracked || e.State == directory.Unowned {
			for _, h := range hs {
				out = append(out, StateViolation{blk, h.proc, fmt.Sprintf("cache holds %s but no directory tracks the block", h.state)})
			}
			continue
		}
		switch e.State {
		case directory.SharedState:
			for _, h := range hs {
				if h.state == cache.Modified {
					out = append(out, StateViolation{blk, h.proc, "Modified line under a Shared directory entry"})
				} else if !e.Sharers.Contains(h.proc) {
					out = append(out, StateViolation{blk, h.proc, "holds a copy without a sharer bit"})
				}
			}
			e.Sharers.ForEach(func(p int) {
				for _, h := range hs {
					if h.proc == p {
						return
					}
				}
				out = append(out, StateViolation{blk, p, "sharer bit without a live cache line"})
			})
		case directory.Exclusive:
			ownerHeld := false
			for _, h := range hs {
				if h.proc == int(e.Owner) {
					ownerHeld = true
					if h.state != cache.Modified {
						out = append(out, StateViolation{blk, h.proc, fmt.Sprintf("exclusive owner holds a %s line", h.state)})
					}
				} else {
					out = append(out, StateViolation{blk, h.proc, fmt.Sprintf("holds a copy while p%d owns the block exclusively", e.Owner)})
				}
			}
			if !ownerHeld {
				out = append(out, StateViolation{blk, int(e.Owner), "Exclusive owner without a live line"})
			}
		}
	}
	return out
}

func sortU64(v []uint64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}
