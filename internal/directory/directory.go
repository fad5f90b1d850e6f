// Package directory implements full-bit-vector directory cache coherence in
// the style of the SGI Origin2000's Hub protocol. One Directory tracks, per
// 128-byte block of the machine's memory, whether the block is unowned,
// shared by a set of processors, or exclusively owned (dirty) by one. Each
// entry belongs to the home node of its page; the home counts the entries
// in each state and owns the scratch lists its invalidating writes fill.
//
// The directory is precise: caches notify it of evictions (the Origin uses
// replacement hints similarly), so invalidation fan-out matches the true
// sharer set. The machine model (internal/core) turns the transition
// results into latency and traffic.
package directory

import (
	"fmt"
	"math/bits"

	"origin2000/internal/mempolicy"
	"origin2000/internal/pagearray"
)

// MaxProcs is the largest processor count a sharer set can track.
const MaxProcs = 128

// State is the directory's view of a block.
type State uint8

const (
	// Unowned means no cache holds the block; memory is the only copy.
	Unowned State = iota
	// SharedState means one or more caches hold read-only copies.
	SharedState
	// Exclusive means exactly one cache holds a dirty copy.
	Exclusive
)

func (s State) String() string {
	switch s {
	case Unowned:
		return "Unowned"
	case SharedState:
		return "Shared"
	case Exclusive:
		return "Exclusive"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Sharers is a bit vector over processor ids.
type Sharers [2]uint64

// Add inserts processor p.
func (s *Sharers) Add(p int) { s[p>>6] |= 1 << (uint(p) & 63) }

// Remove deletes processor p.
func (s *Sharers) Remove(p int) { s[p>>6] &^= 1 << (uint(p) & 63) }

// Contains reports whether processor p is present.
func (s *Sharers) Contains(p int) bool { return s[p>>6]&(1<<(uint(p)&63)) != 0 }

// Count reports the number of sharers.
func (s *Sharers) Count() int { return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) }

// Clear empties the set.
func (s *Sharers) Clear() { s[0], s[1] = 0, 0 }

// ForEach calls fn for each processor in ascending order.
func (s *Sharers) ForEach(fn func(p int)) {
	for w := 0; w < 2; w++ {
		v := s[w]
		for v != 0 {
			b := bits.TrailingZeros64(v)
			fn(w*64 + b)
			v &^= 1 << uint(b)
		}
	}
}

// List returns the sharers in ascending order, appended to dst.
func (s *Sharers) List(dst []int) []int {
	s.ForEach(func(p int) { dst = append(dst, p) })
	return dst
}

// Entry is the directory record for one block.
type Entry struct {
	State   State
	Sharers Sharers
	Owner   int16 // valid when State == Exclusive
}

// Directory storage is a page array (internal/pagearray), the layout the
// checker's mirrors and the tracer's heat index share: blocks are grouped
// by the 16 KB page they live on (128-byte blocks, so exactly 128 entries
// per page), each touched page owns a flat array of entries, and pages are
// indexed directly by page number, because the machine bump-allocates
// memory from address zero. A transition is a bounds check and two loads,
// and it mutates its entry in place.
type dirPage = pagearray.Page[struct{}, Entry]

// Directory tracks every block of the machine's memory.
type Directory struct {
	// pages holds every page's entries, wherever the page is homed. The
	// machine sizes it before Run (GrowPages), so a transition writes only
	// its own page's slot, and shards that touch disjoint pages need no
	// lock (DESIGN.md §11). A standalone directory grows it on first touch.
	pages pagearray.Array[struct{}, Entry]
	// homes is the machine's page table: a page's home selects the node
	// slot that counts its entries.
	homes *mempolicy.Table
	nodes []nodeState // indexed by home node

	// format computes the extra (non-sharer) fan-out of an invalidating
	// write under an imprecise sharer representation; nil means the
	// precise full-bit-vector format and keeps Write's hot path exactly
	// as it was before formats existed. procs bounds the broadcast set.
	format Format
	procs  int

	// dropInval is a fault-injection hook for the verification layer's own
	// tests (internal/check): when set, Write omits matching processors
	// from the invalidation list while still clearing their sharer bits —
	// the classic lost-invalidation bug the online checker must catch.
	// Never set outside tests.
	dropInval func(block uint64, proc int) bool
}

// nodeState is one home node's share of the directory. Only the shard of
// the node's router, or the serialized commit phase, transitions the
// node's pages, so each node keeps its own counts and scratch lists.
type nodeState struct {
	// nShared and nExclusive count the node's entries in each active
	// state, maintained incrementally on every transition so the metrics
	// sampler's directory-state-mix snapshot is O(1) instead of a scan.
	nShared    int
	nExclusive int
	// scratch and scratchExtra are the reused WriteResult.Invalidate and
	// WriteResult.Extra buffers (see Write).
	scratch      []int
	scratchExtra []int
}

// New creates an empty standalone directory using the precise
// full-bit-vector sharer representation.
func New() *Directory { return NewWithFormat(nil, 0, nil) }

// NewWithFormat creates an empty directory whose invalidating writes fan
// out under the given sharer-representation format, on a machine of
// procs processors whose page table is homes. A nil or FullVector format
// is the precise default and behaves exactly like New. A nil homes builds
// a standalone directory, whose one node counts every page.
func NewWithFormat(f Format, procs int, homes *mempolicy.Table) *Directory {
	if homes == nil {
		homes = mempolicy.NewTable(1, mempolicy.FirstTouch, nil)
	}
	d := &Directory{homes: homes, nodes: make([]nodeState, homes.NumNodes())}
	if _, precise := f.(FullVector); f != nil && !precise {
		d.format = f
		d.procs = procs
	}
	return d
}

// GrowPages extends the directory to cover pages [0, n). The machine calls
// it as it allocates memory, so that no transition grows the array.
func (d *Directory) GrowPages(n int) { d.pages.Grow(n) }

// Pages reports how many pages the directory covers.
func (d *Directory) Pages() int { return d.pages.Len() }

// home returns the home node of block's page. A page the table has not
// placed, which only a standalone directory transitions, counts on node 0.
func (d *Directory) home(block uint64) int {
	h, _ := d.homes.Lookup(block >> pagearray.PageBlockShift)
	return h
}

// node returns the slot of the node that homes block.
func (d *Directory) node(block uint64) *nodeState { return &d.nodes[d.home(block)] }

// Format returns the directory's sharer-representation format
// (FullVector for directories built by New).
func (d *Directory) Format() Format {
	if d.format == nil {
		return FullVector{}
	}
	return d.format
}

// entry returns a mutable pointer to block's record, materializing its page
// on first touch. A touched page takes peek's inlined path.
func (d *Directory) entry(block uint64) *Entry {
	if e := d.peek(block); e != nil {
		return e
	}
	d.pages.Grow(int(block>>pagearray.PageBlockShift) + 1)
	return d.pages.Block(block)
}

// peek returns a pointer to block's record, or nil if its page was never
// touched. It never allocates.
func (d *Directory) peek(block uint64) *Entry {
	if pg := d.pages.Peek(block >> pagearray.PageBlockShift); pg != nil {
		return pg.Block(block)
	}
	return nil
}

// Entry returns the record for block (Unowned if never touched).
func (d *Directory) Entry(block uint64) Entry {
	if e := d.peek(block); e != nil {
		return *e
	}
	return Entry{}
}

// SharerWidth reports how many caches currently hold block: the sharer-set
// size when Shared, 1 when Exclusive, 0 when Unowned. The tracing layer
// samples it after each transition to build sharer-width-over-time heat.
func (d *Directory) SharerWidth(block uint64) int {
	e := d.peek(block)
	if e == nil {
		return 0
	}
	switch e.State {
	case SharedState:
		return e.Sharers.Count()
	case Exclusive:
		return 1
	}
	return 0
}

// ReadResult describes how a read miss must be satisfied.
type ReadResult struct {
	// Dirty reports that a third-party cache owned the block; the home
	// forwards an intervention to Owner, which supplies the data
	// (a 3-hop "remote dirty" transaction) and downgrades to Shared.
	Dirty bool
	// Owner is the previous exclusive owner when Dirty.
	Owner int
}

// Read records a read miss by requester and returns how to satisfy it.
func (d *Directory) Read(block uint64, requester int) ReadResult {
	e := d.entry(block)
	switch e.State {
	case Unowned:
		e.State = SharedState
		d.node(block).nShared++
		e.Sharers.Add(requester)
		return ReadResult{}
	case SharedState:
		e.Sharers.Add(requester)
		return ReadResult{}
	default: // Exclusive
		owner := int(e.Owner)
		e.State = SharedState
		n := d.node(block)
		n.nExclusive--
		n.nShared++
		e.Sharers.Add(owner)
		e.Sharers.Add(requester)
		return ReadResult{Dirty: true, Owner: owner}
	}
}

// WriteResult describes how a write miss or upgrade must be satisfied.
type WriteResult struct {
	// Invalidate lists the caches that must be invalidated (excluding
	// the requester itself).
	Invalidate []int
	// Dirty reports that a third-party cache owned the block and must
	// transfer ownership (3-hop transaction).
	Dirty bool
	// Owner is the previous exclusive owner when Dirty.
	Owner int
	// Extra lists the non-sharer processors the directory's format must
	// also message (limited-pointer broadcast, coarse-vector region
	// spill). They receive invalidation messages — and cost latency and
	// occupancy — but hold no copy, so no cache state changes and the
	// coherence checker does not count them. Empty under the precise
	// full-bit-vector format. Like Invalidate, it is a scratch buffer
	// reused by the next Write call.
	Extra []int
}

// Write records a write miss (or an upgrade from Shared) by requester and
// returns the required invalidations/intervention. Afterwards requester is
// the exclusive owner.
//
// The Invalidate slice is a scratch buffer owned by the block's home node,
// reused by the next Write to a block that node homes: consume it before
// transitioning another block (copy it if it must outlive that).
func (d *Directory) Write(block uint64, requester int) WriteResult {
	e := d.entry(block)
	var r WriteResult
	switch e.State {
	case SharedState:
		n := d.node(block)
		inv := n.scratch[:0]
		if d.dropInval == nil {
			e.Sharers.ForEach(func(p int) {
				if p != requester {
					inv = append(inv, p)
				}
			})
		} else {
			e.Sharers.ForEach(func(p int) {
				if p != requester && !d.dropInval(block, p) {
					inv = append(inv, p)
				}
			})
		}
		n.scratch = inv
		if len(inv) > 0 {
			r.Invalidate = inv
		}
		if d.format != nil {
			ex := d.format.ExtraTargets(n.scratchExtra[:0], &e.Sharers, requester, d.procs)
			n.scratchExtra = ex
			if len(ex) > 0 {
				r.Extra = ex
			}
		}
		e.Sharers.Clear()
		n.nShared--
		n.nExclusive++
	case Exclusive:
		if int(e.Owner) != requester {
			r.Dirty = true
			r.Owner = int(e.Owner)
		}
	default: // Unowned
		d.node(block).nExclusive++
	}
	e.State = Exclusive
	e.Owner = int16(requester)
	return r
}

// Writeback records that owner wrote the dirty block back to memory.
// It is a no-op if owner is no longer the exclusive owner (the writeback
// raced with an intervention).
func (d *Directory) Writeback(block uint64, owner int) {
	e := d.peek(block)
	if e == nil || e.State != Exclusive || int(e.Owner) != owner {
		return
	}
	e.State = Unowned
	d.node(block).nExclusive--
}

// Evict records that proc silently dropped a clean (Shared) copy.
func (d *Directory) Evict(block uint64, proc int) {
	e := d.peek(block)
	if e == nil || e.State != SharedState {
		return
	}
	e.Sharers.Remove(proc)
	if e.Sharers.Count() == 0 {
		e.State = Unowned
		d.node(block).nShared--
	}
}

// Rehome moves page's share of the state counts from node from to node to.
// The machine calls it when the page table rehomes the page, from the
// table's OnRemap hook. The page's entries stay where they are: the
// directory covers the whole machine, and only which node counts them
// changes.
func (d *Directory) Rehome(page uint64, from, to int) {
	pg := d.pages.Peek(page)
	if pg == nil || from == to {
		return
	}
	nS, nX := stateCounts(pg)
	f, t := &d.nodes[from], &d.nodes[to]
	f.nShared -= nS
	f.nExclusive -= nX
	t.nShared += nS
	t.nExclusive += nX
}

// stateCounts counts a page's entries in the Shared and Exclusive states.
func stateCounts(pg *dirPage) (shared, exclusive int) {
	for i := range pg.Blocks {
		switch pg.Blocks[i].State {
		case SharedState:
			shared++
		case Exclusive:
			exclusive++
		}
	}
	return shared, exclusive
}

// StateCounts reports how many blocks are currently in the Shared and
// Exclusive directory states, summed over the home nodes. The counts are
// maintained incrementally on every transition; the metrics sampler reads
// them at each machine sample.
func (d *Directory) StateCounts() (shared, exclusive int) {
	for i := range d.nodes {
		shared += d.nodes[i].nShared
		exclusive += d.nodes[i].nExclusive
	}
	return shared, exclusive
}

// ForEach calls fn for every block with active (non-Unowned) directory
// state, in ascending block order. The verification layer (internal/check)
// uses it for its end-of-run audit.
func (d *Directory) ForEach(fn func(block uint64, e Entry)) {
	d.pages.ForEach(func(page uint64, pg *dirPage) {
		for i := range pg.Blocks {
			if pg.Blocks[i].State != Unowned {
				fn(pagearray.BlockOf(page, i), pg.Blocks[i])
			}
		}
	})
}

// Check verifies the directory's internal invariants — the per-entry
// semantic constraints, and each home node's incremental state counts
// against a recount of the pages it homes — returning a non-nil error on
// the first violation. The online checker's Audit calls it; tests use it
// directly.
func (d *Directory) Check() error {
	var firstErr error
	recount := make([]nodeState, len(d.nodes))
	d.pages.ForEach(func(page uint64, pg *dirPage) {
		s, x := stateCounts(pg)
		n := &recount[d.home(pagearray.BlockOf(page, 0))]
		n.nShared += s
		n.nExclusive += x
		for i := range pg.Blocks {
			if firstErr == nil {
				firstErr = checkEntry(pagearray.BlockOf(page, i), &pg.Blocks[i])
			}
		}
	})
	if firstErr != nil {
		return firstErr
	}
	for i, n := range d.nodes {
		if r := recount[i]; n.nShared != r.nShared || n.nExclusive != r.nExclusive {
			return fmt.Errorf("directory: node %d's state counts say %d Shared and %d Exclusive, a recount finds %d and %d",
				i, n.nShared, n.nExclusive, r.nShared, r.nExclusive)
		}
	}
	return nil
}

// checkEntry verifies one entry's semantic constraints.
func checkEntry(b uint64, e *Entry) error {
	switch e.State {
	case Unowned:
		if n := e.Sharers.Count(); n != 0 {
			return fmt.Errorf("block %d: Unowned with %d sharers", b, n)
		}
	case SharedState:
		if e.Sharers.Count() == 0 {
			return fmt.Errorf("block %d: Shared with no sharers", b)
		}
	case Exclusive:
		if e.Sharers.Count() != 0 {
			return fmt.Errorf("block %d: Exclusive with sharer bits set", b)
		}
		if e.Owner < 0 || int(e.Owner) >= MaxProcs {
			return fmt.Errorf("block %d: bad owner %d", b, e.Owner)
		}
	default:
		return fmt.Errorf("block %d: invalid state %d", b, uint8(e.State))
	}
	return nil
}

// FaultDropInvalidation installs a fault-injection hook: Write omits
// processors for which fn returns true from its invalidation list while
// still clearing their sharer bits. It exists so internal/check can prove
// the online checker and the protocol fuzzer catch a lost invalidation;
// pass nil to clear. Never use outside tests.
func (d *Directory) FaultDropInvalidation(fn func(block uint64, proc int) bool) {
	d.dropInval = fn
}
