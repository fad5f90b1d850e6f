// Package sharing is the simulator's sharing-pattern diagnosis layer: an
// online observer that classifies every cache block's sharing behaviour
// (read-only, private, migratory, producer-consumer, widely-shared),
// splits coherence misses into true and false sharing at word
// granularity, and attributes remote misses to home nodes to expose
// hotspots — the "why doesn't it scale" attribution the source paper
// performs by hand for each application.
//
// The observer follows the internal/check and internal/metrics
// discipline: it is gated by core.Config.Sharing, costs nothing but nil
// checks when off, and — because it only reads protocol events, never
// advancing a clock — perturbs simulated time by exactly zero when on.
//
// Capture and classification are split so the per-event cost stays off
// the simulation's critical path: the hooks append fixed-width packed
// records to a flat event log (a streaming store, no per-block state
// touched), and the exact classification state machine folds the log
// whenever it fills and at every snapshot or report boundary. The fold
// replays events in recorded order, so verdicts are identical to
// classifying at event time. Recording order must match the
// coherence-event order, so enabling the observer pins the parallel
// engine to one worker; the schedule is identical at any requested
// worker count, so its output is bit-identical across runs, engines and
// worker counts.
package sharing

import (
	"math/bits"

	"origin2000/internal/memclass"
	"origin2000/internal/pagearray"
)

// Sub-block footprint granularity: the classifier tracks accesses at
// 4-byte words, 32 of them per 128-byte block. core asserts at compile
// time that this matches its block size.
const (
	WordBytes     = 4
	WordsPerBlock = 32
)

// WordOf maps a byte address to its word index within the block.
func WordOf(addr uint64) int { return int(addr/WordBytes) % WordsPerBlock }

// Options configures the observer (carried in core.Config.Sharing).
type Options struct {
	// Enabled turns the classifier on. When false the machine never
	// constructs an observer and the hot path pays only nil checks.
	Enabled bool
}

// Pattern is a block's classified sharing behaviour.
type Pattern int

// Sharing patterns, from least to most coherence-intensive.
const (
	// ReadOnly blocks are never written, or written by a single
	// processor that never invalidated a reader (init-then-read-only).
	ReadOnly Pattern = iota
	// Private blocks are touched by exactly one processor.
	Private
	// Migratory blocks are written by several processors with ownership
	// moving between them: no write ever invalidated more than one copy
	// (the classic lock-protected-datum signature).
	Migratory
	// ProducerConsumer blocks have a single writer whose writes
	// repeatedly invalidate reader copies.
	ProducerConsumer
	// WidelyShared blocks are written by several processors with at
	// least one write invalidating two or more copies.
	WidelyShared

	NumPatterns
)

func (p Pattern) String() string {
	switch p {
	case ReadOnly:
		return "read-only"
	case Private:
		return "private"
	case Migratory:
		return "migratory"
	case ProducerConsumer:
		return "producer-consumer"
	case WidelyShared:
		return "widely-shared"
	}
	return "unknown"
}

// blockState is the per-block classifier state, packed into exactly two
// cache lines. The first line holds everything the per-access paths
// read or write — per-processor presence bitmasks (which copy is live,
// was ever held, died to an invalidation), the reader/writer footprint
// and access counters — so a cache hit touches one line and a demand
// miss two. The second line holds the miss-cause and fan-out counters
// only miss-class paths need.
//
// Per-processor state that only matters for blocks in coherence
// episodes (loss snapshots, pending word masks, per-word write
// sequences) lives in the observer's watch arena, allocated at a
// block's first invalidation: a block that misses but never coheres —
// the overwhelming majority — stays at 128 bytes with no per-copy
// records at all. Processors 64..127 overflow into the page head's wide
// mask array, allocated only for machines that large.
//
// The counters are uint32: a single block absorbing 4 billion
// classified events is beyond any tracked configuration, and halving
// the struct halves the table's cache and zeroing footprint.
// maskWords is one 64-processor population of the five presence masks.
// Keeping them in one addressable struct lets the hooks resolve a
// processor's bits with a single pointer (the block's own words below
// processor 64, the page head's wide array above) instead of five.
type maskWords struct {
	// Invariants: lost is set from invalidation to the next refill, so
	// lost != 0 means some victim is watching write sequences; live is
	// lazy (evictions are observed at the next miss, see applyMiss).
	live, everHeld, lost uint64
	readers, writers     uint64 // processors that ever read / wrote
}

// touched reports whether the population has recorded an event (every
// hook sets readers, writers or everHeld).
func (m *maskWords) touched() bool { return m.readers|m.writers|m.everHeld != 0 }

type blockState struct {
	m maskWords // presence masks for processors 0..63

	reads, writes uint32
	wordsWritten  uint32 // union mask of words ever written
	// wordSeqID indexes the watch arena row; 0 = never invalidated.
	wordSeqID uint32
	// lastWriter is the owning processor plus one; 0 = never written
	// (the zero value must mean "untouched slot").
	lastWriter int16
	// pendingCnt counts copies awaiting true/false settlement; zero
	// lets the access paths skip the watch-row lookup entirely.
	pendingCnt int16
	_          [4]byte // line break: fields below are miss-path only

	page      uint32 // page number at the last demand miss
	home      int16  // home node at the last demand miss
	maxFanout int16  // largest single-write invalidation fan-out

	misses [memclass.NumClasses]uint32

	// Miss-cause split: every demand miss is cold (no prior copy),
	// replacement (copy lost to eviction) or coherence (copy lost to
	// invalidation); coherence misses further split true/settled-false/
	// still-pending, with coherence == trueShare + falseShare +
	// pendingCnt (the coherence total is derived, not stored).
	cold, replacement     uint32
	trueShare, falseShare uint32

	ownerChanges uint32 // writer-to-writer ownership transfers
	invals       uint32 // copies invalidated by writes to this block

	// seq is the block's write sequence, bumped per write while some
	// copy is lost to an invalidation and not yet refilled; the watch
	// row records each word's last-write sequence. A scalar per-victim
	// snapshot (lossSeq) against this replaces a full per-copy version
	// vector — same exact verdicts at a fraction of the state.
	seq uint32
	_   [8]byte // pad to 128 so page slots stay line-aligned
}

// coherence reports the block's coherence-miss total.
func (b *blockState) coherence() int64 {
	return int64(b.trueShare) + int64(b.falseShare) + int64(b.pendingCnt)
}

// pendingCount reports coherence misses still awaiting settlement.
func (b *blockState) pendingCount() int64 { return int64(b.pendingCnt) }

// The classifier's tables are one page array (internal/pagearray), the
// layout the directories, the checker and the tracer share: the machine
// bump-allocates simulated addresses from zero, so page numbers index a
// slice directly, and each touched page owns one record holding its
// pageHead and a blockState per block.
type sharePage = pagearray.Page[pageHead, blockState]

// pageHead is a page's hotspot record: its remote-miss attribution and,
// on machines with more than 64 processors, the presence masks of
// processors 64..127 for the page's blocks. The hotspot entry counts as
// touched iff remote != 0 (it is only written to count a remote miss).
type pageHead struct {
	home   int // home node at the page's last remote miss
	remote int64
	hi     *[pagearray.BlocksPerPage]maskWords // nil unless the observer is wide
	_      [40]byte                            // pad to a line so block slots stay line-aligned
}

// Observer is the per-machine sharing classifier. All recording methods
// are called from simulated-processor goroutines, which the engine
// serializes (the observer forces one worker), so no locking is needed
// and recording order is deterministic.
type Observer struct {
	nprocs, nnodes int
	// wide is set for machines with more than 64 processors, whose
	// presence bits overflow into the page heads' hi arrays. The
	// common-size hot paths test this one bool instead of resolving the
	// page.
	wide   bool
	stride int // watch-arena row length in uint32s

	// pages grows on demand: live events name only pages the machine
	// allocated, and the observer forces one host worker.
	pages  pagearray.Array[pageHead, blockState]
	npages int // pages with a remote miss
	// watch is the coherence-episode arena: one row per block that was
	// ever invalidated, laid out as WordsPerBlock per-word last-write
	// sequences, then nprocs loss snapshots, then nprocs pending word
	// masks. Row 0 is the reserved "never invalidated" sentinel.
	watch []uint32
	// nodeRemote counts remote misses served by each home node — the
	// raw material for the hotspot/imbalance index.
	nodeRemote []int64
	// memo caches each processor's recently-accessed blocks. Word-
	// granularity access runs hit the same block dozens of times in a
	// row, and the block-table walk was the fold's dominant cost.
	// The cached pointers are stable (page records never move once
	// allocated), so the memo never resets. Only the access paths
	// install entries: invalidation victims are by definition not about
	// to be accessed.
	memo []blockMemo

	// log is the capture buffer: packed event records appended by the
	// hooks and folded through the apply methods by flush. It is drained
	// at snapshot/report boundaries and whenever it reaches
	// flushThreshold.
	log []uint64
}

// memoWays is the per-processor memo associativity. Strided kernels
// alternate between a source, a destination and a coefficient stream;
// one way per stream keeps all three resolving without a table walk.
const memoWays = 4

// blockMemo is one processor's recently-accessed block cache, replaced
// round-robin.
type blockMemo struct {
	block [memoWays]uint64
	b     [memoWays]*blockState
	next  uint32
}

// New creates an observer for a machine with nprocs processors spread
// over nnodes nodes.
func New(nprocs, nnodes int) *Observer {
	if nprocs < 1 {
		nprocs = 1
	}
	if nnodes < 1 {
		nnodes = 1
	}
	stride := WordsPerBlock + 2*nprocs
	return &Observer{
		nprocs:     nprocs,
		nnodes:     nnodes,
		wide:       nprocs > 64,
		stride:     stride,
		watch:      make([]uint32, stride), // row 0 sentinel
		nodeRemote: make([]int64, nnodes),
		memo:       make([]blockMemo, nprocs),
		// The capture buffer is allocated once at its full size: the
		// hooks fold it as soon as it reaches flushThreshold, and the
		// longest record (a demand miss) is two words, so an append
		// never has to grow it.
		log: make([]uint64, 0, flushThreshold+1),
	}
}

// Procs reports the processor count the observer was built for.
func (o *Observer) Procs() int { return o.nprocs }

// pageRecord returns page's record, allocating it on first touch and
// growing the table to cover it.
func (o *Observer) pageRecord(page uint64) *sharePage {
	if p := o.pages.Peek(page); p != nil {
		return p
	}
	o.pages.Grow(int(page) + 1)
	p := o.pages.Page(page)
	if o.wide {
		p.Head.hi = new([pagearray.BlocksPerPage]maskWords)
	}
	return p
}

func (o *Observer) block(block uint64) *blockState {
	return o.pageRecord(block >> pagearray.PageBlockShift).Block(block)
}

// blockOf resolves a block through proc's memo.
func (o *Observer) blockOf(proc int, block uint64) *blockState {
	m := &o.memo[proc]
	for i := 0; i < memoWays; i++ {
		if m.block[i] == block && m.b[i] != nil {
			return m.b[i]
		}
	}
	b := o.block(block)
	w := m.next % memoWays
	m.block[w], m.b[w] = block, b
	m.next = w + 1
	return b
}

// maskOf resolves where proc's presence bits live: the block's own mask
// words for the first 64 processors, the page head's wide array above.
// One pointer plus a bit keeps the hooks width-agnostic at register cost.
func (o *Observer) maskOf(block uint64, b *blockState, proc int) (*maskWords, uint64) {
	if proc < 64 {
		return &b.m, 1 << uint(proc)
	}
	return o.hiOf(block), 1 << uint(proc-64)
}

// hiOf returns a resolved block's processor-64..127 masks on a wide
// observer.
func (o *Observer) hiOf(block uint64) *maskWords {
	return &o.pages.Peek(block >> pagearray.PageBlockShift).Head.hi[block&(pagearray.BlocksPerPage-1)]
}

// anyLost reports whether any copy is watching (lost to invalidation
// and not yet refilled) — the gate for write-sequence bookkeeping.
func (o *Observer) anyLost(block uint64, b *blockState) bool {
	return b.m.lost != 0 || o.wide && o.hiOf(block).lost != 0
}

// watchRow returns the block's coherence-episode row: per-word write
// sequences, per-processor loss snapshots, per-processor pending masks.
func (o *Observer) watchRow(id uint32) (wordSeq, lossSeq, pendingWords []uint32) {
	r := o.watch[int(id)*o.stride:]
	return r[:WordsPerBlock:WordsPerBlock],
		r[WordsPerBlock : WordsPerBlock+o.nprocs],
		r[WordsPerBlock+o.nprocs : WordsPerBlock+2*o.nprocs]
}

// ensureRow gives the block a watch row at its first invalidation.
func (o *Observer) ensureRow(b *blockState) {
	if b.wordSeqID == 0 {
		b.wordSeqID = uint32(len(o.watch) / o.stride)
		o.watch = append(o.watch, make([]uint32, o.stride)...)
	}
}

// bumpSeq records a write made while some victim is watching. Only
// watched writes advance the sequence: every comparison is against a
// snapshot taken at an invalidation, and the victim watches from that
// snapshot until its refill, so unwatched bumps could never be
// observed. lost != 0 implies the row exists (OnInvalidate ensures it).
func (o *Observer) bumpSeq(b *blockState, word int) {
	b.seq++
	ws, _, _ := o.watchRow(b.wordSeqID)
	ws[word] = b.seq
}

// settleAt checks proc's pending verdict against an access: touching
// any word remotely written while the processor was out proves the
// coherence miss brought data the processor needed — true sharing.
func (o *Observer) settleAt(b *blockState, proc, word int) {
	if b.wordSeqID == 0 {
		return
	}
	_, _, pw := o.watchRow(b.wordSeqID)
	if pw[proc]&(1<<uint(word)) != 0 {
		pw[proc] = 0
		b.pendingCnt--
		b.trueShare++
	}
}

// dropPending settles proc's pending verdict false: the copy died (or
// was displaced) before the processor touched a remotely-written word.
func (o *Observer) dropPending(b *blockState, proc int) {
	if b.pendingCnt == 0 || b.wordSeqID == 0 {
		return
	}
	_, _, pw := o.watchRow(b.wordSeqID)
	if pw[proc] != 0 {
		pw[proc] = 0
		b.pendingCnt--
		b.falseShare++
	}
}

// recordAccess folds one load or store into the block's footprint and
// pattern state. Write-sequence bumps happen here, AFTER miss
// classification, so a victim's loss snapshot taken during the same
// transaction's invalidation fan-out predates them.
func (o *Observer) recordAccess(block uint64, b *blockState, m *maskWords, bit uint64, proc, word int, write bool) {
	if write {
		b.writes++
		m.writers |= bit
		b.wordsWritten |= 1 << uint(word)
		if o.anyLost(block, b) {
			o.bumpSeq(b, word)
		}
		if b.lastWriter != int16(proc)+1 {
			if b.lastWriter != 0 {
				b.ownerChanges++
			}
			b.lastWriter = int16(proc) + 1
		}
	} else {
		b.reads++
		m.readers |= bit
	}
}

// Packed event-record layout. Every event is one log word carrying the
// block number (32 bits), processor (8), word index (5), a write bit
// and the event type; a demand miss appends a second word with its
// fill attributes (page, home, miss class, invalidation fan-out). The
// layouts cover every tracked configuration — block and page numbers
// are dense bump-allocated small integers, processors cap at 128 — and
// the hooks fall back to flushing and applying directly if an event
// ever overflows a field.
const (
	evHit = iota
	evMiss
	evUpgrade
	evInval
	evPrefetch

	evProcShift  = 32
	evWordShift  = 40
	evWriteBit   = 1 << 45
	evTypeShift  = 46
	evExtraShift = 49 // upgrade fan-out rides in the spare high bits

	exHomeShift   = 32 // miss extra word: home node plus one (0 = none)
	exClassShift  = 45
	exFanoutShift = 48

	// flushThreshold caps the capture buffer at 512KB, so the log stays
	// in the host's cache between append and fold. A fold mid-run is
	// triggered by log length alone, so it is deterministic, and it
	// cannot change a verdict: the fold applies records in recorded
	// order wherever the log is cut.
	flushThreshold = 1 << 16
)

// flushIfFull folds the log once it reaches flushThreshold. Every hook that
// appends calls it, so the log never outgrows the capacity New gives it.
func (o *Observer) flushIfFull() {
	if len(o.log) >= flushThreshold {
		o.flush()
	}
}

// OnHit records a load or store that hit in proc's cache. This is the
// hottest hook — one call per cache hit — so it only appends a packed
// record; classification happens when the log is folded.
func (o *Observer) OnHit(proc int, block uint64, word int, write bool) {
	if block>>32 != 0 {
		o.flush()
		o.applyHit(proc, block, word, write)
		return
	}
	rec := block | uint64(proc)<<evProcShift | uint64(word)<<evWordShift
	if write {
		rec |= evWriteBit
	}
	o.log = append(o.log, rec) // evHit is the zero type
	o.flushIfFull()
}

// OnMiss records a demand miss and its fill attributes.
func (o *Observer) OnMiss(proc int, block uint64, word int, write bool, class memclass.Class, home int, page uint64, fanout int) {
	if block>>32 != 0 || page>>32 != 0 || uint(home+1) >= 1<<13 || uint(fanout) >= 1<<16 {
		o.flush()
		o.applyMiss(proc, block, word, write, class, home, page, fanout)
		return
	}
	rec := block | uint64(proc)<<evProcShift | uint64(word)<<evWordShift | evMiss<<evTypeShift
	if write {
		rec |= evWriteBit
	}
	ex := page | uint64(home+1)<<exHomeShift | uint64(class)<<exClassShift | uint64(fanout)<<exFanoutShift
	o.log = append(o.log, rec, ex)
	o.flushIfFull()
}

// OnUpgrade records a write hit on a Shared line that obtained ownership
// by invalidating fanout other copies.
func (o *Observer) OnUpgrade(proc int, block uint64, word, fanout int) {
	if block>>32 != 0 || uint(fanout) >= 1<<15 {
		o.flush()
		o.applyUpgrade(proc, block, word, fanout)
		return
	}
	o.log = append(o.log, block|uint64(proc)<<evProcShift|uint64(word)<<evWordShift|
		evUpgrade<<evTypeShift|uint64(fanout)<<evExtraShift)
	o.flushIfFull()
}

// OnPrefetchFill records a software-prefetch fill: the processor gains a
// copy without a classified demand miss (the prefetch masked it).
func (o *Observer) OnPrefetchFill(proc int, block uint64) {
	if block>>32 != 0 {
		o.flush()
		o.applyPrefetchFill(proc, block)
		return
	}
	o.log = append(o.log, block|uint64(proc)<<evProcShift|evPrefetch<<evTypeShift)
	o.flushIfFull()
}

// OnInvalidate records proc's copy dying to another processor's write.
func (o *Observer) OnInvalidate(proc int, block uint64) {
	if block>>32 != 0 {
		o.flush()
		o.applyInvalidate(proc, block)
		return
	}
	o.log = append(o.log, block|uint64(proc)<<evProcShift|evInval<<evTypeShift)
	o.flushIfFull()
}

// flush folds every captured event, in recorded order, through the
// classification state machine. Callers that read classifier state
// (Snap, Report) flush first; the verdicts are exactly those of
// event-time classification because the replay order is the event order.
func (o *Observer) flush() {
	log := o.log
	o.log = o.log[:0]
	for i := 0; i < len(log); i++ {
		rec := log[i]
		block := rec & 0xffffffff
		proc := int(rec >> evProcShift & 0xff)
		word := int(rec >> evWordShift & 0x1f)
		write := rec&evWriteBit != 0
		switch rec >> evTypeShift & 0x7 {
		case evHit:
			o.applyHit(proc, block, word, write)
		case evMiss:
			i++
			ex := log[i]
			o.applyMiss(proc, block, word, write,
				memclass.Class(ex>>exClassShift&0x7),
				int(ex>>exHomeShift&0x1fff)-1,
				ex&0xffffffff,
				int(ex>>exFanoutShift))
		case evUpgrade:
			o.applyUpgrade(proc, block, word, int(rec>>evExtraShift))
		case evInval:
			o.applyInvalidate(proc, block)
		case evPrefetch:
			o.applyPrefetchFill(proc, block)
		}
	}
}

// applyHit folds a cache hit. The common case touches only the memo and
// the block's first line; the watch row is consulted only when the
// pending count says a settlement is possible.
func (o *Observer) applyHit(proc int, block uint64, word int, write bool) {
	b := o.blockOf(proc, block)
	if b.pendingCnt != 0 {
		o.settleAt(b, proc, word)
	}
	if proc >= 64 {
		m, bit := o.maskOf(block, b, proc)
		o.recordAccess(block, b, m, bit, proc, word, write)
		return
	}
	if write {
		b.writes++
		b.m.writers |= 1 << uint(proc)
		b.wordsWritten |= 1 << uint(word)
		if o.anyLost(block, b) {
			o.bumpSeq(b, word)
		}
		if b.lastWriter != int16(proc)+1 {
			if b.lastWriter != 0 {
				b.ownerChanges++
			}
			b.lastWriter = int16(proc) + 1
		}
	} else {
		b.reads++
		b.m.readers |= 1 << uint(proc)
	}
}

// applyMiss folds a demand miss and its fill: class is the shared miss
// taxonomy (never Upgrade here), home the serving node, fanout the
// number of copies the transaction invalidated (write misses only).
// Recorded after the transaction completed and before any later event,
// so the write-sequence comparison against the processor's loss
// snapshot is exact.
func (o *Observer) applyMiss(proc int, block uint64, word int, write bool, class memclass.Class, home int, page uint64, fanout int) {
	b := o.blockOf(proc, block)
	m, bit := o.maskOf(block, b, proc)
	b.page, b.home = uint32(page), int16(home)
	b.misses[class]++

	switch {
	case m.live&bit != 0:
		// A miss with a live copy on record means the copy was silently
		// displaced. The directory is precise (evictions send
		// replacement hints), so invalidations never target evicted
		// copies and replacement is the only silent loss — which is why
		// the observer has no eviction or writeback hook: evictions
		// outnumber misses on cache-thrashing workloads, and these
		// verdicts equal eviction-time bookkeeping. A verdict still
		// pending from the displaced residency settles false, as an
		// eviction-time settlement would have.
		b.replacement++
		o.dropPending(b, proc)
	case m.everHeld&bit == 0:
		b.cold++
	case m.lost&bit != 0:
		m.lost &^= bit // refill ends this copy's watch
		ws, ls, pw := o.watchRow(b.wordSeqID)
		var dirty uint32
		if b.seq != ls[proc] {
			for w := 0; w < WordsPerBlock; w++ {
				if ws[w] > ls[proc] {
					dirty |= 1 << uint(w)
				}
			}
		}
		switch {
		case dirty&(1<<uint(word)) != 0:
			b.trueShare++
		case dirty == 0:
			// Nothing was written while the processor was out: the
			// invalidation could not have carried data it needed.
			b.falseShare++
		default:
			pw[proc] = dirty // pending: settles on a later touch
			b.pendingCnt++
		}
	default:
		b.replacement++
	}
	m.live |= bit
	m.everHeld |= bit

	o.recordAccess(block, b, m, bit, proc, word, write)
	if write && fanout > 0 {
		b.invals += uint32(fanout)
		if int16(fanout) > b.maxFanout {
			b.maxFanout = int16(fanout)
		}
	}

	if class.Remote() {
		if home >= 0 && home < len(o.nodeRemote) {
			o.nodeRemote[home]++
		}
		h := &o.pageRecord(page).Head
		if h.remote == 0 {
			o.npages++
		}
		h.home = home
		h.remote++
	}
}

// applyUpgrade folds an ownership upgrade.
func (o *Observer) applyUpgrade(proc int, block uint64, word, fanout int) {
	b := o.blockOf(proc, block)
	b.misses[memclass.Upgrade]++
	if b.pendingCnt != 0 {
		o.settleAt(b, proc, word)
	}
	m, bit := o.maskOf(block, b, proc)
	o.recordAccess(block, b, m, bit, proc, word, true)
	if fanout > 0 {
		b.invals += uint32(fanout)
		if int16(fanout) > b.maxFanout {
			b.maxFanout = int16(fanout)
		}
	}
}

// applyPrefetchFill folds a software-prefetch fill.
func (o *Observer) applyPrefetchFill(proc int, block uint64) {
	b := o.block(block)
	m, bit := o.maskOf(block, b, proc)
	// The previous copy's verdict can no longer change.
	o.dropPending(b, proc)
	m.lost &^= bit // prefetch refill ends the watch like a demand fill
	m.live |= bit
	m.everHeld |= bit
}

// applyInvalidate folds an invalidation of proc's copy. A still-pending
// coherence miss settles false: the copy was invalidated before the
// processor ever touched a remotely-written word.
func (o *Observer) applyInvalidate(proc int, block uint64) {
	b := o.block(block)
	m, bit := o.maskOf(block, b, proc)
	o.dropPending(b, proc)
	// First invalidation ever: the block starts tracking per-word write
	// sequences from here on.
	o.ensureRow(b)
	_, ls, _ := o.watchRow(b.wordSeqID)
	ls[proc] = b.seq // the victim watches from this snapshot until refill
	m.live &^= bit
	m.lost |= bit
	m.everHeld |= bit
}

// forEachBlock visits every touched block in ascending block order —
// the canonical order Snap and Report rely on.
func (o *Observer) forEachBlock(fn func(block uint64, b *blockState)) {
	o.pages.ForEach(func(page uint64, p *sharePage) {
		for i := range p.Blocks {
			if b := &p.Blocks[i]; b.m.touched() || p.Head.hi != nil && p.Head.hi[i].touched() {
				fn(pagearray.BlockOf(page, i), b)
			}
		}
	})
}

// forEachPage visits every page with a remote miss in ascending page
// order.
func (o *Observer) forEachPage(fn func(page uint64, h *pageHead)) {
	o.pages.ForEach(func(page uint64, p *sharePage) {
		if p.Head.remote != 0 {
			fn(page, &p.Head)
		}
	})
}

// hiMasks returns the processor-64..127 mask population (zero for
// common-width machines) for report- and snapshot-time counting.
func (o *Observer) hiMasks(block uint64) maskWords {
	if !o.wide {
		return maskWords{}
	}
	return *o.hiOf(block)
}

// patternOf derives the block's classification from its accumulated
// state (the state machine is documented in DESIGN.md §15).
func (o *Observer) patternOf(block uint64, b *blockState) Pattern {
	hi := o.hiMasks(block)
	writers := bits.OnesCount64(b.m.writers) + bits.OnesCount64(hi.writers)
	touched := bits.OnesCount64(b.m.readers|b.m.writers) + bits.OnesCount64(hi.readers|hi.writers)
	switch {
	case writers == 0:
		return ReadOnly
	case touched == 1:
		return Private
	case writers == 1:
		if b.invals == 0 {
			return ReadOnly // written only before any reader held a copy
		}
		return ProducerConsumer
	case b.maxFanout <= 1:
		return Migratory
	default:
		return WidelyShared
	}
}

// popcount32 counts set bits in a word mask.
func popcount32(m uint32) int { return bits.OnesCount32(m) }
