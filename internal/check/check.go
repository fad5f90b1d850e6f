// Package check is the verification layer for the simulated CC-NUMA
// machine: an online coherence-invariant checker the machine model
// (internal/core) feeds with protocol events, a deterministic protocol
// fuzzer (trace generation and shrinking; the runner lives in this
// package's tests), and — in the litmus subpackage — a sequential-
// consistency litmus harness.
//
// The online checker maintains two independent mirrors built only from the
// event stream:
//
//   - a directory mirror: what the home directory must say about each
//     block if every transition it reported was applied faithfully, and
//   - per-processor cache mirrors: which blocks each cache must hold, in
//     which state, and at which value version.
//
// After every transaction it cross-checks the mirrors against the real
// directory entry and the real cache lines, asserting the paper's
// correctness obligations:
//
//   - SWMR: at most one writer per block, and a writer excludes sharers;
//   - directory↔cache agreement: every sharer bit corresponds to a live
//     cache line in the right state, and every Modified line has an
//     Exclusive ("Dirty") directory entry;
//   - value coherence: a golden flat-memory image is modeled as a
//     monotonically increasing version per block; every readable cached
//     copy must hold the latest version (a stale version surviving an
//     invalidation is exactly a lost-invalidation bug).
//
// Violations carry the block address, a ring of the block's recent
// transaction history, and every processor's virtual clock at detection
// time. The checker is opt-in (core.Config.Check) and costs nothing when
// off: the machine model guards every hook with one nil check.
package check

import (
	"fmt"
	"slices"
	"strings"

	"origin2000/internal/cache"
	"origin2000/internal/directory"
	"origin2000/internal/pagearray"
	"origin2000/internal/sim"
)

// EventKind labels one protocol event in a block's history ring.
type EventKind uint8

// The protocol events the machine model reports.
const (
	EvReadHit EventKind = iota
	EvWriteHit
	EvDirRead
	EvDirWrite
	EvFillShared
	EvFillModified
	EvUpgrade
	EvInvalidate
	EvDowngrade
	EvEvict
	EvWriteback
	EvTxnEnd
)

func (k EventKind) String() string {
	switch k {
	case EvReadHit:
		return "read-hit"
	case EvWriteHit:
		return "write-hit"
	case EvDirRead:
		return "dir-read"
	case EvDirWrite:
		return "dir-write"
	case EvFillShared:
		return "fill-S"
	case EvFillModified:
		return "fill-M"
	case EvUpgrade:
		return "upgrade"
	case EvInvalidate:
		return "invalidate"
	case EvDowngrade:
		return "downgrade"
	case EvEvict:
		return "evict"
	case EvWriteback:
		return "writeback"
	case EvTxnEnd:
		return "txn-end"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one entry of a block's transaction-history ring.
type Event struct {
	Kind EventKind
	Proc int16 // acting processor (-1 when not applicable)
	At   sim.Time
	Ver  uint64 // golden version after the event
}

func (e Event) String() string {
	return fmt.Sprintf("%s p%d @%s v%d", e.Kind, e.Proc, e.At, e.Ver)
}

// ringSize is the number of history events kept per block.
const ringSize = 16

// histEntry is one history Event packed into 16 bytes: the time, and one
// word holding the version above the kind and the processor plus one.
// Processors number below directory.MaxProcs (128), so proc+1 fits its
// byte, and every kind fits the kind byte. A 16-entry ring then fits the
// allocator's 288-byte size class, where 24-byte Events took 416.
type histEntry struct {
	at   sim.Time
	word uint64 // ver<<histVerShift | kind<<8 | uint8(proc+1)
}

const (
	histVerShift = 16
	// maxHistVer is the largest version a history entry holds. A block
	// reaches it only after 2^48 writes.
	maxHistVer = 1<<(64-histVerShift) - 1
)

// packEvent packs e. A version beyond maxHistVer is a checker bug.
func packEvent(e Event) histEntry {
	if e.Ver > maxHistVer {
		panic(fmt.Sprintf("check: history version %d exceeds %d", e.Ver, uint64(maxHistVer)))
	}
	return histEntry{at: e.At, word: e.Ver<<histVerShift | uint64(e.Kind)<<8 | uint64(uint8(e.Proc+1))}
}

// event unpacks the entry.
func (h histEntry) event() Event {
	return Event{
		Kind: EventKind(h.word >> 8),
		Proc: int16(uint8(h.word)) - 1,
		At:   h.at,
		Ver:  h.word >> histVerShift,
	}
}

type ring struct {
	ev [ringSize]histEntry
	n  int // total events recorded; the next write goes to n % ringSize
}

func (r *ring) record(e Event) {
	r.ev[r.n%ringSize] = packEvent(e)
	r.n++
}

// snapshot returns the recorded events, oldest first.
func (r *ring) snapshot() []Event {
	if r == nil {
		return nil
	}
	k := min(r.n, ringSize)
	out := make([]Event, 0, k)
	for i := r.n - k; i < r.n; i++ {
		out = append(out, r.ev[i%ringSize].event())
	}
	return out
}

// Violation is one detected invariant breach.
type Violation struct {
	// Block is the block number the violation concerns.
	Block uint64
	// Msg describes the breached invariant.
	Msg string
	// Proc is the processor whose event exposed it (-1 for audit findings).
	Proc int
	// At is that processor's virtual clock when detected.
	At sim.Time
	// History is the block's recent transaction history, oldest first.
	History []Event
	// Clocks holds every processor's virtual clock at detection time.
	Clocks []sim.Time
}

func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check: block %#x: %s (proc %d @%s)", v.Block, v.Msg, v.Proc, v.At)
	if len(v.History) > 0 {
		b.WriteString("\n  history:")
		for _, e := range v.History {
			fmt.Fprintf(&b, "\n    %s", e)
		}
	}
	if len(v.Clocks) > 0 {
		b.WriteString("\n  clocks:")
		for i, c := range v.Clocks {
			fmt.Fprintf(&b, " p%d=%s", i, c)
		}
	}
	return b.String()
}

// lineMirror is one processor's expected cache line.
type lineMirror struct {
	proc  int16
	state cache.State // Shared or Modified
	ver   uint64      // golden version the copy holds
}

// blockMirror is the checker's expected state for one block.
type blockMirror struct {
	// seen marks a block some event has touched; the rest of its page is
	// zero-valued padding the scans skip.
	seen bool
	// dirState/owner/sharers mirror the home directory entry.
	dirState directory.State
	owner    int16
	sharers  directory.Sharers
	// ver is the golden flat-memory image: the version of the latest
	// committed write to the block.
	ver uint64
	// held lists the processors' expected cache lines for this block,
	// sorted by processor, so every scan reports in processor order.
	held []lineMirror
	// hist is the transaction-history ring (lazily allocated).
	hist *ring
}

// find returns the index of proc's line in held, or the index where it
// would be inserted and false.
func (b *blockMirror) find(proc int) (int, bool) {
	for i := range b.held {
		if p := int(b.held[i].proc); p >= proc {
			return i, p == proc
		}
	}
	return len(b.held), false
}

// line returns proc's expected line, if it holds one.
func (b *blockMirror) line(proc int) (lineMirror, bool) {
	if i, ok := b.find(proc); ok {
		return b.held[i], true
	}
	return lineMirror{}, false
}

// set records proc holding the block in state st at version ver.
func (b *blockMirror) set(proc int, st cache.State, ver uint64) {
	ln := lineMirror{proc: int16(proc), state: st, ver: ver}
	i, ok := b.find(proc)
	if !ok {
		b.held = slices.Insert(b.held, i, ln)
		return
	}
	b.held[i] = ln
}

// drop forgets proc's line, if it holds one.
func (b *blockMirror) drop(proc int) {
	if i, ok := b.find(proc); ok {
		b.held = slices.Delete(b.held, i, i+1)
	}
}

// Mirror storage is a page array (internal/pagearray), the layout the
// tracer's heat index shares: blocks are grouped by their 16 KB page, each
// touched page owns a flat array of mirrors, and pages are indexed
// directly by page number. The checker runs on one host worker, so it
// grows the array on demand.
type mirrorPage = pagearray.Page[struct{}, blockMirror]

// Checker is the online coherence-invariant checker. It is not safe for
// concurrent use; the simulation engine serializes the event stream (the
// machine forces the windowed engine onto one worker when checking), which
// is exactly what the mirror-state updates need.
type Checker struct {
	dir    *directory.Directory
	caches []*cache.Cache
	clocks []sim.Time

	mirrors pagearray.Array[struct{}, blockMirror]

	// MaxViolations bounds the violations retained (default 16); detection
	// continues but further reports are dropped, keeping a broken run from
	// hoarding memory.
	MaxViolations int
	violations    []*Violation
	dropped       int

	events int64
}

// New creates a checker for a machine with nprocs processors over the given
// directory. Caches are attached as the machine builds them.
func New(nprocs int, dir *directory.Directory) *Checker {
	return &Checker{
		dir:           dir,
		caches:        make([]*cache.Cache, nprocs),
		clocks:        make([]sim.Time, nprocs),
		MaxViolations: 16,
	}
}

// AttachCache registers processor p's cache for agreement checks.
func (c *Checker) AttachCache(p int, ca *cache.Cache) { c.caches[p] = ca }

// Events reports the number of protocol events observed (diagnostics).
func (c *Checker) Events() int64 { return c.events }

// Violations returns the violations detected so far, in detection order.
func (c *Checker) Violations() []*Violation { return c.violations }

// Err returns nil when no violation was detected, or an error summarizing
// the first violation (and the total count).
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	n := len(c.violations) + c.dropped
	if n == 1 {
		return c.violations[0]
	}
	return fmt.Errorf("check: %d violations, first: %w", n, c.violations[0])
}

// mirror returns block's mirror, marking it seen.
func (c *Checker) mirror(block uint64) *blockMirror {
	c.mirrors.Grow(int(block>>pagearray.PageBlockShift) + 1)
	b := c.mirrors.Block(block)
	if !b.seen {
		b.seen, b.owner = true, -1
	}
	return b
}

// peek returns block's mirror, or nil if no event has touched the block.
func (c *Checker) peek(block uint64) *blockMirror {
	if pg := c.mirrors.Peek(block >> pagearray.PageBlockShift); pg != nil {
		if b := pg.Block(block); b.seen {
			return b
		}
	}
	return nil
}

// forEach visits every seen block in ascending block order.
func (c *Checker) forEach(fn func(block uint64, b *blockMirror)) {
	c.mirrors.ForEach(func(page uint64, pg *mirrorPage) {
		for i := range pg.Blocks {
			if pg.Blocks[i].seen {
				fn(pagearray.BlockOf(page, i), &pg.Blocks[i])
			}
		}
	})
}

func (c *Checker) record(b *blockMirror, kind EventKind, proc int, at sim.Time) {
	if b.hist == nil {
		b.hist = &ring{}
	}
	b.hist.record(Event{Kind: kind, Proc: int16(proc), At: at, Ver: b.ver})
	c.events++
}

func (c *Checker) violate(block uint64, b *blockMirror, proc int, at sim.Time, format string, args ...any) {
	if len(c.violations) >= c.MaxViolations {
		c.dropped++
		return
	}
	v := &Violation{
		Block:   block,
		Msg:     fmt.Sprintf(format, args...),
		Proc:    proc,
		At:      at,
		History: b.hist.snapshot(),
		Clocks:  append([]sim.Time(nil), c.clocks...),
	}
	c.violations = append(c.violations, v)
}

func (c *Checker) tick(proc int, at sim.Time) {
	if proc >= 0 && proc < len(c.clocks) && at > c.clocks[proc] {
		c.clocks[proc] = at
	}
}

// --- cache-side events ---

// OnHit records a demand hit: a read of a Shared or Modified line, or a
// write hit on a Modified line. It asserts the processor really holds the
// block at the golden version (value coherence) and, for writes, that it is
// the exclusive owner (SWMR).
func (c *Checker) OnHit(proc int, block uint64, write bool, at sim.Time) {
	c.tick(proc, at)
	b := c.mirror(block)
	kind := EvReadHit
	if write {
		kind = EvWriteHit
	}
	ln, held := b.line(proc)
	switch {
	case !held:
		c.violate(block, b, proc, at, "%s but mirror says p%d holds no copy", kind, proc)
	case ln.ver != b.ver:
		c.violate(block, b, proc, at,
			"stale %s: p%d holds version %d, golden image is %d (lost invalidation?)",
			kind, proc, ln.ver, b.ver)
	case write && ln.state != cache.Modified:
		c.violate(block, b, proc, at, "write hit on non-Modified mirror line (%s)", ln.state)
	}
	if write {
		// The owner commits a new value: bump the golden image and the
		// owner's copy together. Any other surviving copy is now provably
		// stale and will be caught on its next use.
		b.ver++
		if held {
			b.set(proc, cache.Modified, b.ver)
		}
		c.checkSWMR(block, b, proc, at)
	}
	c.record(b, kind, proc, at)
}

// OnFill records the requester's cache fill completing a demand miss or a
// prefetch. A write fill makes the requester the exclusive owner of a new
// version; a read fill hands it the current golden version.
func (c *Checker) OnFill(proc int, block uint64, write bool, at sim.Time) {
	c.tick(proc, at)
	b := c.mirror(block)
	if write {
		b.ver++
		b.set(proc, cache.Modified, b.ver)
		c.record(b, EvFillModified, proc, at)
	} else {
		b.set(proc, cache.Shared, b.ver)
		c.record(b, EvFillShared, proc, at)
	}
	c.checkSWMR(block, b, proc, at)
}

// OnUpgrade records a write hit on a Shared line completing its ownership
// transaction: the line moves to Modified with a new version.
func (c *Checker) OnUpgrade(proc int, block uint64, at sim.Time) {
	c.tick(proc, at)
	b := c.mirror(block)
	if ln, held := b.line(proc); !held {
		c.violate(block, b, proc, at, "upgrade but mirror says p%d holds no copy", proc)
	} else if ln.ver != b.ver {
		c.violate(block, b, proc, at,
			"upgrade of stale copy: p%d holds version %d, golden image is %d", proc, ln.ver, b.ver)
	}
	b.ver++
	b.set(proc, cache.Modified, b.ver)
	c.record(b, EvUpgrade, proc, at)
	c.checkSWMR(block, b, proc, at)
}

// OnInvalidate records processor proc's copy being invalidated (write
// fan-out or ownership transfer).
func (c *Checker) OnInvalidate(proc int, block uint64, at sim.Time) {
	b := c.mirror(block)
	b.drop(proc)
	c.record(b, EvInvalidate, proc, at)
}

// OnDowngrade records the previous owner's Modified line moving to Shared
// for a remote read intervention.
func (c *Checker) OnDowngrade(proc int, block uint64, at sim.Time) {
	b := c.mirror(block)
	if ln, held := b.line(proc); held {
		if ln.state != cache.Modified {
			c.violate(block, b, proc, at, "downgrade of non-Modified mirror line (%s)", ln.state)
		}
		b.set(proc, cache.Shared, ln.ver)
	} else {
		c.violate(block, b, proc, at, "downgrade but mirror says p%d holds no copy", proc)
	}
	c.record(b, EvDowngrade, proc, at)
}

// OnEvict records proc silently dropping a clean copy (replacement hint).
func (c *Checker) OnEvict(proc int, block uint64, at sim.Time) {
	b := c.mirror(block)
	if ln, held := b.line(proc); held && ln.state == cache.Modified {
		c.violate(block, b, proc, at, "clean eviction of a mirror-Modified line")
	}
	b.drop(proc)
	// Mirror the directory's Evict transition.
	if b.dirState == directory.SharedState {
		b.sharers.Remove(proc)
		if b.sharers.Count() == 0 {
			b.dirState = directory.Unowned
		}
	}
	c.record(b, EvEvict, proc, at)
}

// OnWriteback records proc writing a dirty victim back to memory.
func (c *Checker) OnWriteback(proc int, block uint64, at sim.Time) {
	b := c.mirror(block)
	if ln, held := b.line(proc); !held || ln.state != cache.Modified {
		c.violate(block, b, proc, at, "writeback of a line the mirror does not hold Modified")
	}
	b.drop(proc)
	// Mirror Directory.Writeback: only the current owner returns the block
	// to Unowned.
	if b.dirState == directory.Exclusive && int(b.owner) == proc {
		b.dirState = directory.Unowned
		b.owner = -1
	}
	c.record(b, EvWriteback, proc, at)
}

// --- directory-side events ---

// OnDirRead records the home directory serving a read miss. It verifies
// the reported intervention against the mirror (a dirty response must name
// exactly the mirrored owner) and applies the transition to the mirror.
func (c *Checker) OnDirRead(block uint64, requester int, res directory.ReadResult, at sim.Time) {
	c.tick(requester, at)
	b := c.mirror(block)
	switch b.dirState {
	case directory.Exclusive:
		if !res.Dirty {
			c.violate(block, b, requester, at,
				"dir read: mirror owner p%d but directory reported a clean response", b.owner)
		} else if int16(res.Owner) != b.owner {
			c.violate(block, b, requester, at,
				"dir read: intervention forwarded to p%d, mirror owner is p%d", res.Owner, b.owner)
		}
		b.sharers.Clear()
		b.sharers.Add(int(b.owner))
		b.sharers.Add(requester)
		b.dirState = directory.SharedState
		b.owner = -1
	default:
		if res.Dirty {
			c.violate(block, b, requester, at,
				"dir read: directory reported dirty owner p%d, mirror state is %s", res.Owner, b.dirState)
		}
		b.dirState = directory.SharedState
		b.sharers.Add(requester)
	}
	c.record(b, EvDirRead, requester, at)
}

// OnDirWrite records the home directory serving a write miss or upgrade.
// The invalidation list the directory returned must cover exactly the
// mirrored sharer set minus the requester — a missing entry is a lost
// invalidation, an extra one a spurious invalidation — and a dirty response
// must name exactly the mirrored owner.
func (c *Checker) OnDirWrite(block uint64, requester int, res directory.WriteResult, at sim.Time) {
	c.tick(requester, at)
	b := c.mirror(block)
	switch b.dirState {
	case directory.SharedState:
		var want directory.Sharers
		want = b.sharers
		want.Remove(requester)
		var got directory.Sharers
		for _, p := range res.Invalidate {
			if p < 0 || p >= directory.MaxProcs {
				c.violate(block, b, requester, at, "dir write: invalidation target p%d out of range", p)
				continue
			}
			if got.Contains(p) {
				c.violate(block, b, requester, at, "dir write: duplicate invalidation target p%d", p)
			}
			got.Add(p)
		}
		if got != want {
			c.violate(block, b, requester, at,
				"dir write: invalidation list %v does not match mirror sharers %v (minus requester p%d)",
				sharerList(got), sharerList(want), requester)
		}
		if res.Dirty {
			c.violate(block, b, requester, at, "dir write: dirty response from a Shared mirror block")
		}
	case directory.Exclusive:
		if int(b.owner) != requester {
			if !res.Dirty {
				c.violate(block, b, requester, at,
					"dir write: mirror owner p%d but directory reported no ownership transfer", b.owner)
			} else if int16(res.Owner) != b.owner {
				c.violate(block, b, requester, at,
					"dir write: ownership transferred from p%d, mirror owner is p%d", res.Owner, b.owner)
			}
		} else if res.Dirty || len(res.Invalidate) != 0 {
			c.violate(block, b, requester, at, "dir write: upgrade by owner p%d reported extra work", requester)
		}
	default: // Unowned
		if res.Dirty || len(res.Invalidate) != 0 {
			c.violate(block, b, requester, at, "dir write: Unowned mirror block reported %v/%v",
				res.Dirty, sharerList(sharersOf(res.Invalidate)))
		}
	}
	b.dirState = directory.Exclusive
	b.owner = int16(requester)
	b.sharers.Clear()
	c.record(b, EvDirWrite, requester, at)
}

// OnTxnEnd marks a transaction for block complete: the directory entry and
// every cache agree with the mirrors again, so cross-check all of them.
func (c *Checker) OnTxnEnd(proc int, block uint64, at sim.Time) {
	c.tick(proc, at)
	b := c.mirror(block)
	c.record(b, EvTxnEnd, proc, at)
	c.checkBlock(block, b, proc, at)
}

// --- invariant checks ---

// checkSWMR asserts the single-writer/multiple-reader property on the
// cache mirror of one block.
func (c *Checker) checkSWMR(block uint64, b *blockMirror, proc int, at sim.Time) {
	writers, readers := 0, 0
	writer := -1
	for _, ln := range b.held {
		if ln.state == cache.Modified {
			writers++
			writer = int(ln.proc)
		} else {
			readers++
		}
	}
	if writers > 1 {
		c.violate(block, b, proc, at, "SWMR: %d simultaneous writers", writers)
	}
	if writers == 1 && readers > 0 {
		c.violate(block, b, proc, at,
			"SWMR: writer p%d coexists with %d read-only copies", writer, readers)
	}
}

// checkBlock cross-checks one block: mirror vs the real directory entry,
// and mirror vs the real cache lines.
func (c *Checker) checkBlock(block uint64, b *blockMirror, proc int, at sim.Time) {
	c.checkSWMR(block, b, proc, at)

	e := c.dir.Entry(block)
	if e.State != b.dirState {
		c.violate(block, b, proc, at, "directory state %s, mirror %s", e.State, b.dirState)
		return
	}
	switch b.dirState {
	case directory.Exclusive:
		if e.Owner != b.owner {
			c.violate(block, b, proc, at, "directory owner p%d, mirror p%d", e.Owner, b.owner)
		}
	case directory.SharedState:
		if e.Sharers != b.sharers {
			c.violate(block, b, proc, at, "directory sharers %v, mirror %v",
				sharerList(e.Sharers), sharerList(b.sharers))
		}
	}

	// Directory↔cache agreement for this block, both directions.
	var held directory.Sharers
	for _, ln := range b.held {
		p := int(ln.proc)
		held.Add(p)
		if ca := c.caches[p]; ca != nil {
			if st := ca.Peek(block); st != ln.state {
				c.violate(block, b, proc, at, "p%d cache holds %s, mirror %s", p, st, ln.state)
			}
		}
		switch b.dirState {
		case directory.SharedState:
			if ln.state == cache.Modified {
				c.violate(block, b, proc, at, "p%d mirror-Modified under a Shared directory entry", p)
			} else if !b.sharers.Contains(p) {
				c.violate(block, b, proc, at, "p%d holds a copy without a sharer bit", p)
			}
		case directory.Exclusive:
			if int(b.owner) != p {
				c.violate(block, b, proc, at,
					"p%d holds a copy while p%d owns the block exclusively", p, b.owner)
			} else if ln.state != cache.Modified {
				c.violate(block, b, proc, at, "exclusive owner p%d holds a %s line", p, ln.state)
			}
		default:
			c.violate(block, b, proc, at, "p%d holds a copy of an Unowned block", p)
		}
	}
	if b.dirState == directory.SharedState {
		b.sharers.ForEach(func(p int) {
			if !held.Contains(p) {
				c.violate(block, b, proc, at, "sharer bit for p%d without a live cache line", p)
			}
		})
	}
	if b.dirState == directory.Exclusive {
		if _, ok := b.find(int(b.owner)); !ok {
			c.violate(block, b, proc, at, "Exclusive owner p%d without a live Modified line", b.owner)
		}
	}
}

// Audit performs the full end-of-run scan: storage-structure validation of
// the dense directory, a per-block cross-check of every block the checker
// ever saw, and a reverse sweep asserting the directory has no active entry
// the event stream never produced. Returns the number of violations added.
func (c *Checker) Audit() int {
	before := len(c.violations) + c.dropped
	if err := c.dir.Check(); err != nil {
		b := c.mirror(0)
		c.violate(0, b, -1, 0, "directory self-check: %v", err)
	}
	c.forEach(func(blk uint64, b *blockMirror) { c.checkBlock(blk, b, -1, 0) })
	c.dir.ForEach(func(blk uint64, e directory.Entry) {
		if c.peek(blk) == nil {
			c.violate(blk, &blockMirror{}, -1, 0,
				"directory has active state (%s) for a block with no recorded transactions", e.State)
		}
	})
	return len(c.violations) + c.dropped - before
}

func sharersOf(ps []int) directory.Sharers {
	var s directory.Sharers
	for _, p := range ps {
		if p >= 0 && p < directory.MaxProcs {
			s.Add(p)
		}
	}
	return s
}

func sharerList(s directory.Sharers) []int {
	return s.List(nil)
}
