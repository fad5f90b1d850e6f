// Package trace is the simulator's virtual-time tracing and attribution
// layer: per-processor ring buffers of typed machine events (miss classes,
// synchronization waits, page migrations, queue entries) stamped with
// virtual clocks, online attribution tables (per-page/per-block sharing
// heatmaps, per-sync-object wait rankings), and log-bucketed latency
// histograms, with Chrome trace-event/Perfetto JSON and compact binary
// exporters.
//
// The tracer follows the internal/check discipline: it is gated by
// core.Config.Trace, costs nothing but nil checks when off, and — because
// recording only reads virtual clocks, never advances them — perturbs
// simulated time by exactly zero when on. Everything it records is a pure
// function of the deterministic simulation, so trace output is bit-identical
// across runs and GOMAXPROCS settings.
package trace

import (
	"fmt"
	"sort"

	"origin2000/internal/memclass"
	"origin2000/internal/pagearray"
	"origin2000/internal/sim"
)

// DefaultRingSize is the per-processor event capacity when Options.RingSize
// is zero.
const DefaultRingSize = 8192

// Options configures the tracer (carried in core.Config.Trace).
type Options struct {
	// Enabled turns tracing on. When false the machine never constructs a
	// tracer and the hot path pays only nil checks.
	Enabled bool
	// RingSize is the per-processor event capacity, rounded up to a power
	// of two (default DefaultRingSize). The ring overwrites its oldest
	// events when full unless Lossless is set.
	RingSize int
	// Lossless spills full rings to heap memory so the whole run's event
	// stream survives, at unbounded memory cost.
	Lossless bool
}

// LatClass selects an access-latency histogram. It is an alias of the
// shared miss-class enum (internal/memclass), so the tracer's histogram
// classes, the sampler's counter columns and the sharing classifier's
// miss split are one definition and cannot drift.
type LatClass = memclass.Class

// Access-latency classes (the shared taxonomy, re-exported under the
// tracer's historical names).
const (
	LatLocal       = memclass.Local
	LatRemoteClean = memclass.RemoteClean
	LatRemoteDirty = memclass.RemoteDirty
	LatUpgrade     = memclass.Upgrade
	LatFetchOp     = memclass.FetchOp
	NumLatClasses  = memclass.NumClasses
)

// QueueClass selects a queueing-delay histogram.
type QueueClass int

// Queueing-delay classes (one per shared-resource type).
const (
	QHub QueueClass = iota
	QMem
	QRouter
	QMeta
	NumQueueClasses
)

func (c QueueClass) String() string {
	switch c {
	case QHub:
		return "hub"
	case QMem:
		return "memory"
	case QRouter:
		return "router"
	case QMeta:
		return "metarouter"
	}
	return fmt.Sprintf("QueueClass(%d)", int(c))
}

// queueEventKind maps a QueueClass to its ring-event kind.
var queueEventKind = [NumQueueClasses]Kind{QHub: EvHubQueue, QMem: EvMemQueue, QRouter: EvRouterQueue, QMeta: EvMetaQueue}

// missLatClass maps a miss/upgrade event kind to its latency class.
func missLatClass(k Kind) LatClass {
	switch k {
	case EvMissRemoteClean:
		return LatRemoteClean
	case EvMissRemoteDirty:
		return LatRemoteDirty
	case EvUpgrade:
		return LatUpgrade
	}
	return LatLocal
}

// Tracer records and aggregates one machine's event stream.
//
// Recording is lock-free by ownership: under the windowed engine, phase-1
// events only ever involve processors and resources of the acting
// processor's shard, and commit-phase events run serialized, so every
// mutable structure is either per-processor (the rings), per-shard (the
// histograms, see traceBucket), owned by a page's home shard (the heat
// index, see heatIndex), or commit-only (sync stats and epoch marks).
// Readers merge the per-shard histograms in fixed shard order, so merged
// output is bit-identical at any host worker count.
type Tracer struct {
	opts  Options
	rings []ring

	shardOf []int         // processor -> bucket index (all zero until SetShards)
	buckets []traceBucket // per-shard histograms
	heat    heatIndex     // per-page and per-block heat

	syncs map[uint64]*SyncStat
	syncN map[string]int

	epochs []sim.Time
}

// traceBucket is the histogram state one shard mutates during the
// engine's parallel phase. Bucket contents are a pure function of the
// (deterministic) schedule, and histograms merge commutatively, so the
// merged view does not depend on how work was spread over host workers.
type traceBucket struct {
	lat   [NumLatClasses]Histogram
	queue [NumQueueClasses]Histogram
}

func newTraceBuckets(n int) []traceBucket { return make([]traceBucket, max(n, 1)) }

// heatIndex is the page and block heat, indexed directly by page number:
// each touched page holds its full HeatStat and one compact blockHeat per
// block.
//
// It is one index for the whole machine, not one per shard, and stays
// race-free by ownership. In phase 1 the machine runs a transaction in a
// shard only when the page's home and every sharer or owner it reaches are
// on that shard's router, so Miss and InvalRecv touch page P only from the
// shard that homes P; pages move (PageRemapped) only in the serialized
// commit phase. Two shards therefore never write one page's record. The
// slice header never changes during a run: GrowPages sizes it while no
// processor runs, and an event naming a page beyond it panics.
type heatIndex = pagearray.Array[HeatStat, blockHeat]

// heatPage is one page's record in the heat index.
type heatPage = pagearray.Page[HeatStat, blockHeat]

// New creates a tracer for procs processors (one shard until SetShards).
func New(procs int, o Options) *Tracer {
	if procs < 1 {
		procs = 1
	}
	t := &Tracer{
		opts:    o,
		rings:   make([]ring, procs),
		shardOf: make([]int, procs),
		buckets: newTraceBuckets(1),
		syncs:   make(map[uint64]*SyncStat),
		syncN:   make(map[string]int),
	}
	for i := range t.rings {
		t.rings[i] = newRing(o.RingSize, o.Lossless)
	}
	return t
}

// SetShards installs the engine's shard map: shardOf[i] is processor i's
// shard, numShards the bucket count. Must be called before any event is
// recorded; the machine wires it when it wires the engine's shards.
func (t *Tracer) SetShards(shardOf []int, numShards int) {
	copy(t.shardOf, shardOf)
	t.buckets = newTraceBuckets(numShards)
}

// GrowPages extends the heat index to cover pages [0, n). The machine
// calls it from Alloc, while no processor runs; recording never grows the
// index.
func (t *Tracer) GrowPages(n int) { t.heat.Grow(n) }

// NumShards reports the attribution bucket count.
func (t *Tracer) NumShards() int { return len(t.buckets) }

// Procs reports the number of per-processor event streams.
func (t *Tracer) Procs() int { return len(t.rings) }

// Options returns the tracer's configuration.
func (t *Tracer) Options() Options { return t.opts }

// bucket returns the attribution bucket of the processor acting in an
// event. During phase 1 the actor is always in the recording shard; during
// the commit phase any bucket would be safe, and using the actor's keeps
// the choice schedule-determined.
func (t *Tracer) bucket(proc int) *traceBucket { return &t.buckets[t.shardOf[proc]] }

// Miss records one demand miss or upgrade: kind must be EvMissLocal,
// EvMissRemoteClean, EvMissRemoteDirty or EvUpgrade. now is the issue time,
// lat the stall, invals the invalidations the transaction sent, and sharers
// the post-transition sharer-set width of the block, which lies on page.
func (t *Tracer) Miss(proc int, now, lat sim.Time, block, page uint64, home, invals, sharers int, kind Kind) {
	t.rings[proc].record(Event{Time: now, Dur: lat, Addr: block, Arg: int32(invals), Node: int16(home), Kind: kind})
	pg := t.heat.Page(page)
	pg.Head.observe(kind, lat, invals, sharers)
	pg.Block(block).observe(kind, lat, invals, sharers)
	t.bucket(proc).lat[missLatClass(kind)].Record(lat)
}

// InvalRecv records that victim's cached copy of block, which lies on
// page, was invalidated by requester's write.
func (t *Tracer) InvalRecv(victim int, now sim.Time, block, page uint64, requester int) {
	t.rings[victim].record(Event{Time: now, Addr: block, Node: int16(requester), Kind: EvInvalRecv})
	pg := t.heat.Page(page)
	pg.Head.InvalsRecv++
	pg.Block(block).invalsRecv++
}

// Intervention records that owner received a forwarded intervention for
// block from requester (write = ownership transfer, else downgrade).
func (t *Tracer) Intervention(owner int, now sim.Time, block, page uint64, requester int, write bool) {
	var arg int32
	if write {
		arg = 1
	}
	t.rings[owner].record(Event{Time: now, Addr: block, Arg: arg, Node: int16(requester), Kind: EvIntervention})
}

// Prefetch records a software-prefetch issue with its (overlapped) fill
// latency.
func (t *Tracer) Prefetch(proc int, now, dur sim.Time, block uint64, home int) {
	t.rings[proc].record(Event{Time: now, Dur: dur, Addr: block, Node: int16(home), Kind: EvPrefetch})
}

// FetchOp records one uncached at-memory fetch&op.
func (t *Tracer) FetchOp(proc int, now, dur sim.Time, block uint64, home int) {
	t.rings[proc].record(Event{Time: now, Dur: dur, Addr: block, Node: int16(home), Kind: EvFetchOp})
	t.bucket(proc).lat[LatFetchOp].Record(dur)
}

// Writeback records a dirty victim written back to its home.
func (t *Tracer) Writeback(proc int, now sim.Time, block, page uint64, home int) {
	t.rings[proc].record(Event{Time: now, Addr: block, Node: int16(home), Kind: EvWriteback})
}

// Migration records a dynamic page migration triggered by proc's remote
// miss. (The per-page migration count is maintained by PageRemapped, which
// also sees manual re-homes.)
func (t *Tracer) Migration(proc int, now sim.Time, page uint64, from, to int) {
	t.rings[proc].record(Event{Time: now, Addr: page, Arg: int32(from), Node: int16(to), Kind: EvPageMigration})
}

// PageRemapped observes every page move — dynamic migration and overriding
// manual placement — via the page table's OnRemap hook. Page moves always
// run in the serialized commit phase (migration follows a cross-classified
// remote miss), so no shard owns the page's record meanwhile.
func (t *Tracer) PageRemapped(page uint64, from, to int) {
	t.heat.Page(page).Head.Migrations++
}

// QueueDelay records a transaction queueing for delay behind earlier
// traffic at the given resource (ring event only; the delay distributions
// are fed by ResourceObserver, which sees every acquire).
func (t *Tracer) QueueDelay(proc int, now, delay sim.Time, class QueueClass, node int) {
	t.rings[proc].record(Event{Time: now, Dur: delay, Node: int16(node), Kind: queueEventKind[class]})
}

// ResourceObserver returns a sim.Resource observer that feeds the class's
// queueing-delay histogram from every acquisition (including zero-delay
// ones, so the distribution reflects the uncontended mass too). shard is
// the owning resource's shard (metarouters, which only cross-module — and
// therefore commit-phase — traffic touches, pass 0). The bucket is indexed
// at observation time, after the machine has installed the shard map.
func (t *Tracer) ResourceObserver(class QueueClass, node, shard int) func(at, start, occ sim.Time) {
	return func(at, start, occ sim.Time) {
		t.buckets[shard].queue[class].Record(start - at)
	}
}

// RegisterSync names a synchronization object for attribution. Objects of
// the same label are distinguished by registration order ("lock#0",
// "lock#1", ...). Registration is idempotent per object id.
func (t *Tracer) RegisterSync(obj uint64, label string) {
	if _, ok := t.syncs[obj]; ok {
		return
	}
	n := t.syncN[label]
	t.syncN[label] = n + 1
	t.syncs[obj] = &SyncStat{Obj: obj, Label: fmt.Sprintf("%s#%d", label, n)}
}

func (t *Tracer) syncStat(obj uint64) *SyncStat {
	s := t.syncs[obj]
	if s == nil {
		s = &SyncStat{Obj: obj, Label: fmt.Sprintf("sync@%#x", obj)}
		t.syncs[obj] = s
	}
	return s
}

// SyncWait records one blocking wait episode (barrier arrival-to-release,
// or any Block-based wait) at a sync object.
func (t *Tracer) SyncWait(proc int, obj uint64, start, span sim.Time) {
	t.rings[proc].record(Event{Time: start, Dur: span, Addr: obj, Kind: EvSyncWait})
	s := t.syncStat(obj)
	s.Waits++
	s.observe(span)
}

// SyncAcquire records one lock acquisition; span is the request-to-grant
// wait (zero when uncontended — counted, but not ring-recorded, so hot
// uncontended locks do not wash the ring out).
func (t *Tracer) SyncAcquire(proc int, obj uint64, start, span sim.Time) {
	s := t.syncStat(obj)
	s.Acquires++
	if span <= 0 {
		return
	}
	t.rings[proc].record(Event{Time: start, Dur: span, Addr: obj, Kind: EvSyncAcquire})
	s.Waits++
	s.observe(span)
}

// EpochMark records a phase boundary — a full-machine barrier release — at
// virtual time now. The release is computed by one deterministic processor
// (the last arriver), so the sequence of marks is a stable signature of the
// program's phase structure, usable to align runs of the same program.
func (t *Tracer) EpochMark(now sim.Time) { t.epochs = append(t.epochs, now) }

// Epochs returns the phase-boundary times recorded so far, in order.
func (t *Tracer) Epochs() []sim.Time { return t.epochs }

// Events returns processor proc's surviving event stream, oldest first.
func (t *Tracer) Events(proc int) []Event { return t.rings[proc].events() }

// AllEvents returns every processor's surviving stream, indexed by
// processor id.
func (t *Tracer) AllEvents() [][]Event {
	out := make([][]Event, len(t.rings))
	for i := range t.rings {
		out[i] = t.rings[i].events()
	}
	return out
}

// EventsRecorded reports the total number of events recorded (including
// any later overwritten).
func (t *Tracer) EventsRecorded() int64 {
	var n int64
	for i := range t.rings {
		n += int64(t.rings[i].n)
	}
	return n
}

// EventsDropped reports how many recorded events were overwritten (always
// zero in lossless mode).
func (t *Tracer) EventsDropped() int64 {
	var n int64
	for i := range t.rings {
		n += int64(t.rings[i].dropped())
	}
	return n
}

// eachHeat calls fn with every recorded page's heat (blocks false) or
// every recorded block's (blocks true), in ascending key order.
func (t *Tracer) eachHeat(blocks bool, fn func(key uint64, h *HeatStat)) {
	t.heat.ForEach(func(page uint64, pg *heatPage) {
		if !blocks {
			if pg.Head.recorded() {
				fn(page, &pg.Head)
			}
			return
		}
		for i := range pg.Blocks {
			if h := pg.Blocks[i].stat(); h.recorded() {
				fn(pagearray.BlockOf(page, i), &h)
			}
		}
	})
}

// topHeat ranks eachHeat's entries and keeps the first n (all when n <= 0).
func (t *Tracer) topHeat(blocks bool, n int) []Heat {
	count := 0
	t.eachHeat(blocks, func(uint64, *HeatStat) { count++ })
	out := make([]Heat, 0, count)
	t.eachHeat(blocks, func(k uint64, h *HeatStat) { out = append(out, Heat{Key: k, HeatStat: *h}) })
	out = rankHeat(out)
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TopPages returns the per-page heatmap ranked by remote misses, then
// stall. n <= 0 returns every page.
func (t *Tracer) TopPages(n int) []Heat { return t.topHeat(false, n) }

// TopBlocks returns the per-block heatmap ranked like TopPages.
func (t *Tracer) TopBlocks(n int) []Heat { return t.topHeat(true, n) }

// RemoteMissShare reports the fraction of all recorded remote misses that
// the top-n ranked pages account for (1.0 when there are none) — the
// "can you find the offending pages" metric.
func (t *Tracer) RemoteMissShare(n int) float64 {
	var total, top int64
	for i, h := range t.TopPages(0) {
		r := h.RemoteMisses()
		total += r
		if i < n {
			top += r
		}
	}
	if total == 0 {
		return 1
	}
	return float64(top) / float64(total)
}

// TopSync returns sync objects ranked by total wait time. n <= 0 returns
// all.
func (t *Tracer) TopSync(n int) []SyncStat {
	out := make([]SyncStat, 0, len(t.syncs))
	for _, s := range t.syncs {
		out = append(out, *s)
	}
	// Rank by wait, then label for determinism.
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalWait != out[j].TotalWait {
			return out[i].TotalWait > out[j].TotalWait
		}
		return out[i].Label < out[j].Label
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// LatencyHist returns the access-latency histogram for class c, merged
// across shards.
func (t *Tracer) LatencyHist(c LatClass) *Histogram {
	if len(t.buckets) == 1 {
		return &t.buckets[0].lat[c]
	}
	m := &Histogram{}
	for i := range t.buckets {
		m.Merge(&t.buckets[i].lat[c])
	}
	return m
}

// QueueHist returns the queueing-delay histogram for class c, merged
// across shards.
func (t *Tracer) QueueHist(c QueueClass) *Histogram {
	if len(t.buckets) == 1 {
		return &t.buckets[0].queue[c]
	}
	m := &Histogram{}
	for i := range t.buckets {
		m.Merge(&t.buckets[i].queue[c])
	}
	return m
}

// PageReport renders the top-n page heatmap as table rows (header first).
func (t *Tracer) PageReport(n int) [][]string { return heatRows(t.TopPages(n), "page", n) }

// BlockReport renders the top-n block heatmap as table rows.
func (t *Tracer) BlockReport(n int) [][]string { return heatRows(t.TopBlocks(n), "block", n) }

// SyncReport renders the top-n sync-object wait ranking as table rows.
func (t *Tracer) SyncReport(n int) [][]string {
	rows := [][]string{{"object", "waits", "acquires", "total-wait(ms)", "max-wait(ms)", "mean-wait(us)"}}
	for _, s := range t.TopSync(n) {
		mean := 0.0
		if s.Waits > 0 {
			mean = float64(s.TotalWait) / float64(s.Waits) / float64(sim.Microsecond)
		}
		rows = append(rows, []string{
			s.Label,
			fmt.Sprint(s.Waits),
			fmt.Sprint(s.Acquires),
			fmt.Sprintf("%.3f", s.TotalWait.Milliseconds()),
			fmt.Sprintf("%.3f", s.MaxWait.Milliseconds()),
			fmt.Sprintf("%.2f", mean),
		})
	}
	return rows
}

// histRow renders one histogram as a table row.
func histRow(name string, h *Histogram) []string {
	ns := func(t sim.Time) string { return fmt.Sprintf("%.0f", t.Nanoseconds()) }
	return []string{
		name,
		fmt.Sprint(h.Count()),
		ns(h.Mean()),
		ns(h.Quantile(0.50)),
		ns(h.Quantile(0.90)),
		ns(h.Quantile(0.99)),
		ns(h.Max()),
	}
}

// LatencyReport renders the access-latency distributions as table rows:
// count, mean and tail quantiles in nanoseconds per class.
func (t *Tracer) LatencyReport() [][]string {
	rows := [][]string{{"latency", "count", "mean(ns)", "p50(ns)", "p90(ns)", "p99(ns)", "max(ns)"}}
	for c := LatClass(0); c < NumLatClasses; c++ {
		h := t.LatencyHist(c)
		if h.Count() == 0 {
			continue
		}
		rows = append(rows, histRow(c.String(), h))
	}
	return rows
}

// QueueReport renders the queueing-delay distributions as table rows. Each
// class includes every acquisition at that resource type, so the p50 shows
// how much of the traffic queued at all.
func (t *Tracer) QueueReport() [][]string {
	rows := [][]string{{"queue", "count", "mean(ns)", "p50(ns)", "p90(ns)", "p99(ns)", "max(ns)"}}
	for c := QueueClass(0); c < NumQueueClasses; c++ {
		h := t.QueueHist(c)
		if h.Count() == 0 {
			continue
		}
		rows = append(rows, histRow(c.String(), h))
	}
	return rows
}
