// Package snapshot defines the originckpt checkpoint format: the header of
// a run at a quiescent scheduling point (a round boundary with no open
// global section), and one SHA-256 digest of every section of the
// simulated machine's state and of whichever observers — checker, tracer,
// metrics sampler, sharing classifier — the run had enabled.
//
// Goroutine stacks cannot be serialized, so "restore" is replay-based: a
// resumed run rebuilds the machine and its observers from the recorded
// configuration, deterministically re-executes the prefix with the
// observers recording, and proves at the recorded quiescent point that
// every re-captured section but the header digests to the recorded value.
// Nothing is ever written back into a live object, so a digest is all a
// checkpoint needs to keep of a section. See DESIGN.md §13.
package snapshot

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"slices"

	"origin2000/internal/sim"
)

// Version is the format version this package writes. It reads version 1
// as well.
const Version = 2

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

// Header is the snapshot's self-describing first section, the one section
// a checkpoint keeps whole.
type Header struct {
	// Version is the format version the capture was written in.
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

// Digest is the SHA-256 of one section's canonical JSON: json.Marshal of
// the section value, the bytes an originckpt/v1 payload holds.
type Digest [sha256.Size]byte

// Snapshot is one decoded checkpoint: its header and the digest of every
// section its run captured, keyed by section name. Observer sections are
// absent when the capturing run had them disabled.
type Snapshot struct {
	Header  Header
	Digests map[string]Digest
}

// Add digests v's canonical JSON as section name: the bytes json.Marshal
// returns, hashed as a json.Encoder writes them, so that no copy of a
// section's encoding is made.
func (s *Snapshot) Add(name string, v any) error {
	if name == secHeader || !slices.Contains(sectionNames, name) {
		return &FormatError{name, "not a digested section"}
	}
	d := &digester{h: sha256.New()}
	if err := json.NewEncoder(d).Encode(v); err != nil {
		return &FormatError{name, "encode: " + err.Error()}
	}
	if s.Digests == nil {
		s.Digests = map[string]Digest{}
	}
	var sum Digest
	s.Digests[name] = Digest(d.h.Sum(sum[:0]))
	return nil
}

// digester hashes what is written to it except the last byte: the
// newline json.Encoder ends each value with and json.Marshal omits.
type digester struct {
	h    hash.Hash
	last []byte
}

func (d *digester) Write(p []byte) (int, error) {
	if len(p) > 0 {
		d.h.Write(d.last)
		d.h.Write(p[:len(p)-1])
		d.last = append(d.last[:0], p[len(p)-1])
	}
	return len(p), nil
}

// Has reports whether the snapshot holds section name.
func (s *Snapshot) Has(name string) bool {
	_, ok := s.Digests[name]
	return ok
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
	// Section is the first snapshot section whose digest differed.
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

// ProveEqual is the resume proof: it compares the digest of every section
// of live and recorded except the header, which records how the run was
// driven (engine, worker count, checkpoint directory) rather than what it
// computed, and returns the name of the first differing section in
// canonical order, or ok=true when all match. A section present on one
// side only differs.
func ProveEqual(live, recorded *Snapshot) (section string, ok bool) {
	for _, name := range sectionNames[1:] {
		a, aok := live.Digests[name]
		b, bok := recorded.Digests[name]
		if aok != bok || a != b {
			return name, false
		}
	}
	return "", true
}

// Diff compares two snapshots, the header's canonical JSON first and then
// every section's digest, returning the name of the first differing
// section, or ok=true when the snapshots are equivalent.
func Diff(a, b *Snapshot) (section string, ok bool) {
	ha, erra := json.Marshal(&a.Header)
	hb, errb := json.Marshal(&b.Header)
	if erra != nil || errb != nil || string(ha) != string(hb) {
		return secHeader, false
	}
	return ProveEqual(a, b)
}

// Validate checks a snapshot's header and that every simulation section is
// present, returning a FormatError naming the offending section.
func (s *Snapshot) Validate() error {
	h := &s.Header
	if h.Version != 1 && h.Version != Version {
		return &FormatError{secHeader, fmt.Sprintf("version %d, want 1 or %d", h.Version, Version)}
	}
	if h.Procs <= 0 {
		return &FormatError{secHeader, fmt.Sprintf("non-positive processor count %d", h.Procs)}
	}
	if h.QuiesSeq <= 0 {
		return &FormatError{secHeader, fmt.Sprintf("non-positive quiescent sequence %d", h.QuiesSeq)}
	}
	return s.missing()
}

// missing returns a FormatError naming the first simulation section the
// snapshot lacks.
func (s *Snapshot) missing() error {
	for _, name := range simSections {
		if !s.Has(name) {
			return &FormatError{name, "missing"}
		}
	}
	return nil
}
