// Package directory implements full-bit-vector directory cache coherence in
// the style of the SGI Origin2000's Hub protocol. Each home node keeps one
// Directory tracking, per 128-byte block, whether the block is unowned,
// shared by a set of processors, or exclusively owned (dirty) by one.
//
// The directory is precise: caches notify it of evictions (the Origin uses
// replacement hints similarly), so invalidation fan-out matches the true
// sharer set. The machine model (internal/core) turns the transition
// results into latency and traffic.
package directory

import (
	"fmt"
	"math/bits"

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

// Directory tracks every block homed at one node. The zero value is an
// empty directory with the precise full-bit-vector format, as New returns.
type Directory struct {
	// pages grows on first touch. The machine touches a node's directory
	// only from its home router's shard or in the serialized commit phase
	// (DESIGN.md §11), so growing it needs no lock.
	pages   pagearray.Array[struct{}, Entry]
	scratch []int // reused invalidation list (see Write)

	// format computes the extra (non-sharer) fan-out of an invalidating
	// write under an imprecise sharer representation; nil means the
	// precise full-bit-vector format and keeps Write's hot path exactly
	// as it was before formats existed. procs bounds the broadcast set;
	// scratchExtra is the reused WriteResult.Extra buffer.
	format       Format
	procs        int
	scratchExtra []int

	// nShared and nExclusive count entries in each active state,
	// maintained incrementally on every transition so the metrics
	// sampler's directory-state-mix snapshot is O(1) instead of a scan.
	nShared    int
	nExclusive int

	// dropInval is a fault-injection hook for the verification layer's own
	// tests (internal/check): when set, Write omits matching processors
	// from the invalidation list while still clearing their sharer bits —
	// the classic lost-invalidation bug the online checker must catch.
	// Never set outside tests.
	dropInval func(block uint64, proc int) bool
}

// New creates an empty directory using the precise full-bit-vector
// sharer representation.
func New() *Directory { return &Directory{} }

// NewWithFormat creates an empty directory whose invalidating writes fan
// out under the given sharer-representation format, on a machine of
// procs processors. A nil or FullVector format is the precise default
// and behaves exactly like New.
func NewWithFormat(f Format, procs int) *Directory {
	d := New()
	if f == nil {
		return d
	}
	if _, ok := f.(FullVector); ok {
		return d // precise: keep the nil fast path
	}
	d.format = f
	d.procs = procs
	return d
}

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
		d.nShared++
		e.Sharers.Add(requester)
		return ReadResult{}
	case SharedState:
		e.Sharers.Add(requester)
		return ReadResult{}
	default: // Exclusive
		owner := int(e.Owner)
		e.State = SharedState
		d.nExclusive--
		d.nShared++
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
// The Invalidate slice is a scratch buffer owned by the directory, reused
// by the next Write call: consume it before transitioning another block
// (copy it if it must outlive that).
func (d *Directory) Write(block uint64, requester int) WriteResult {
	e := d.entry(block)
	var r WriteResult
	switch e.State {
	case SharedState:
		inv := d.scratch[:0]
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
		d.scratch = inv
		if len(inv) > 0 {
			r.Invalidate = inv
		}
		if d.format != nil {
			ex := d.format.ExtraTargets(d.scratchExtra[:0], &e.Sharers, requester, d.procs)
			d.scratchExtra = ex
			if len(ex) > 0 {
				r.Extra = ex
			}
		}
		e.Sharers.Clear()
		d.nShared--
		d.nExclusive++
	case Exclusive:
		if int(e.Owner) != requester {
			r.Dirty = true
			r.Owner = int(e.Owner)
		}
	default: // Unowned
		d.nExclusive++
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
	d.nExclusive--
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
		d.nShared--
	}
}

// MovePage hands the record of the 16 KB page (page = block >> 7, which
// equals the machine's memory page number) from d to dst, together with
// its blocks' share of the incremental state counts. The machine calls it
// when page migration rehomes a page, so that each node's directory stays
// authoritative for exactly the blocks it homes. A page has one home at a
// time, so dst holds no record of it.
func (d *Directory) MovePage(page uint64, dst *Directory) {
	if d == dst {
		return
	}
	pg := d.pages.Take(page)
	if pg == nil {
		return
	}
	nS, nX := stateCounts(pg)
	d.nShared -= nS
	d.nExclusive -= nX
	dst.pages.Put(page, pg)
	dst.nShared += nS
	dst.nExclusive += nX
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
// Exclusive directory states. The counts are maintained incrementally on
// every transition; the metrics sampler reads them at each machine sample.
func (d *Directory) StateCounts() (shared, exclusive int) { return d.nShared, d.nExclusive }

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
// semantic constraints, and the incremental state counts against a
// recount — returning a non-nil error on the first violation. The online
// checker's Audit calls it; tests use it directly.
func (d *Directory) Check() error {
	var firstErr error
	nS, nX := 0, 0
	d.pages.ForEach(func(page uint64, pg *dirPage) {
		s, x := stateCounts(pg)
		nS += s
		nX += x
		for i := range pg.Blocks {
			if firstErr == nil {
				firstErr = checkEntry(pagearray.BlockOf(page, i), &pg.Blocks[i])
			}
		}
	})
	if firstErr != nil {
		return firstErr
	}
	if nS != d.nShared || nX != d.nExclusive {
		return fmt.Errorf("directory: state counts say %d Shared and %d Exclusive, a recount finds %d and %d",
			d.nShared, d.nExclusive, nS, nX)
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
