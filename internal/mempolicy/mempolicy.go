// Package mempolicy implements physical page placement for a CC-NUMA
// machine: the 16 KB pages of the Origin2000, first-touch and round-robin
// default policies, explicit (manual) per-page homes, and the dynamic page
// migration support evaluated in the paper's Section 6.2.
package mempolicy

// Page geometry of the Origin2000.
const (
	PageShift = 14
	PageBytes = 1 << PageShift // 16 KB
)

// PageOf returns the page number containing byte address addr.
func PageOf(addr uint64) uint64 { return addr >> PageShift }

// Kind selects the default placement policy for pages without an explicit
// home.
type Kind int

const (
	// FirstTouch homes a page at the node of the first processor to
	// access it (the IRIX default; what "manual" placement arranges by
	// having the owning process touch its data first).
	FirstTouch Kind = iota
	// RoundRobin stripes pages across nodes by page number.
	RoundRobin
)

func (k Kind) String() string {
	if k == RoundRobin {
		return "RoundRobin"
	}
	return "FirstTouch"
}

// Table maps pages to home nodes.
//
// Its state is indexed by page number, because the machine bump-allocates
// memory from address zero. The slices grow only when a page is placed or
// takes a remote miss under migration, which the machine does before Run
// or in the engine's serialized commit phase (DESIGN.md §11); concurrent
// lookups from other shards therefore never see the slice header change.
type Table struct {
	numNodes int
	kind     Kind
	homes    []int32 // homes[page] is the page's home plus one; 0 = unplaced
	migrator *Migrator
	remaps   uint32 // moves of an already-homed page

	// OnRemap, when set, observes every move of an already-homed page —
	// dynamic migrations and overriding SetHome calls alike — with the
	// page's previous and new home. The machine uses it to move the page's
	// share of the directory's state counts to the new home and to feed
	// the tracer's per-page migration heat; it must not mutate placement
	// state.
	OnRemap func(page uint64, from, to int)
}

// NewTable creates a page table over numNodes nodes with the given default
// policy. Pass a non-nil Migrator to enable dynamic migration.
func NewTable(numNodes int, kind Kind, m *Migrator) *Table {
	if numNodes < 1 {
		numNodes = 1
	}
	return &Table{numNodes: numNodes, kind: kind, migrator: m}
}

// NumNodes reports the node count.
func (t *Table) NumNodes() int { return t.numNodes }

// Kind reports the default policy.
func (t *Table) Kind() Kind { return t.kind }

// policyChoice computes the default policy's pick for an unplaced page.
func (t *Table) policyChoice(page uint64, touchNode int) int {
	if t.kind == RoundRobin {
		return int(page % uint64(t.numNodes))
	}
	return touchNode
}

// Home returns the page's home node, assigning one by the default policy if
// the page is untouched. touchNode is the node of the accessing processor
// (used by FirstTouch).
func (t *Table) Home(page uint64, touchNode int) int {
	if h, ok := t.Lookup(page); ok {
		return h
	}
	h := t.policyChoice(page, touchNode)
	t.set(page, h)
	return h
}

// Choose returns the home the default policy would pick for an unplaced
// page, without recording it. Callers that need to adjust the choice (e.g.
// for per-node capacity limits) combine Choose with SetHome.
func (t *Table) Choose(page uint64, touchNode int) int {
	if h, ok := t.Lookup(page); ok {
		return h
	}
	return t.policyChoice(page, touchNode)
}

// SetHome pins a page to a node (manual placement by the application).
func (t *Table) SetHome(page uint64, node int) {
	if h, ok := t.Lookup(page); ok && h != node {
		t.remaps++
		if t.OnRemap != nil {
			t.OnRemap(page, h, node)
		}
	}
	t.set(page, node)
}

// set records node as page's home.
func (t *Table) set(page uint64, node int) {
	t.homes = cover(t.homes, page)
	t.homes[page] = int32(node) + 1
}

// Lookup returns the page's home without assigning one, reporting whether
// the page is placed. It never writes, so the engine's shard classifier
// calls it from any shard: an unplaced page's first touch mutates
// placement state, so it must run in the serialized commit phase.
func (t *Table) Lookup(page uint64) (home int, ok bool) {
	if page < uint64(len(t.homes)) && t.homes[page] != 0 {
		return int(t.homes[page]) - 1, true
	}
	return 0, false
}

// Placed reports whether a page already has a home.
func (t *Table) Placed(page uint64) bool {
	_, ok := t.Lookup(page)
	return ok
}

// RecordRemoteMiss informs the migration policy that node missed remotely
// on page. It returns the new home and true when the policy decides to
// migrate the page (the caller charges the migration cost and the table has
// already been updated).
func (t *Table) RecordRemoteMiss(page uint64, node int) (newHome int, migrated bool) {
	if t.migrator == nil {
		return 0, false
	}
	to, ok := t.migrator.record(page, node)
	if !ok {
		return 0, false
	}
	from, _ := t.Lookup(page)
	t.set(page, to)
	t.remaps++
	if t.OnRemap != nil {
		t.OnRemap(page, from, to)
	}
	return to, true
}

// cover returns s extended with zero values to cover index page.
func cover[T any](s []T, page uint64) []T {
	if page >= uint64(len(s)) {
		s = append(s, make([]T, page+1-uint64(len(s)))...)
	}
	return s
}

// Migrator implements the counter-based migration policy: when one node has
// taken Threshold remote misses on a page and holds at least a 2x lead over
// every other node's count, the page migrates to it and the counters reset.
type Migrator struct {
	// Threshold is the remote-miss count that triggers migration.
	Threshold int
	// Migrations counts pages moved.
	Migrations int64

	counts [][]int32 // counts[page] is nil until the page's first remote miss
	nodes  int
}

// NewMigrator creates a migrator for numNodes nodes. A threshold <= 0
// selects the default of 64 misses.
func NewMigrator(numNodes, threshold int) *Migrator {
	if threshold <= 0 {
		threshold = 64
	}
	return &Migrator{Threshold: threshold, nodes: numNodes}
}

func (m *Migrator) record(page uint64, node int) (to int, migrate bool) {
	m.counts = cover(m.counts, page)
	c := m.counts[page]
	if c == nil {
		c = make([]int32, m.nodes)
		m.counts[page] = c
	}
	c[node]++
	if int(c[node]) < m.Threshold {
		return 0, false
	}
	// Require a clear (2x) lead over every other node so balanced
	// sharing does not make pages ping-pong.
	for n, v := range c {
		if n != node && 2*v > c[node] {
			return 0, false
		}
	}
	for i := range c {
		c[i] = 0
	}
	m.Migrations++
	return node, true
}
