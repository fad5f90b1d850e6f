package trace

import (
	"fmt"
	"sort"

	"origin2000/internal/pagearray"
	"origin2000/internal/sim"
)

// RingSnap is one processor's serialized event ring: the total-event
// counter, the in-buffer tail (oldest first), and the lossless spill area.
// The buffer geometry is not stored — a restored ring is rebuilt from the
// tracer's Options, and N mod the buffer size recovers the write cursor.
type RingSnap struct {
	N        uint64  `json:"n"`
	Resident []Event `json:"resident,omitempty"`
	Spill    []Event `json:"spill,omitempty"`
}

// HistBucket is one non-empty histogram bucket in a HistSnap.
type HistBucket struct {
	Idx   int   `json:"idx"`
	Count int64 `json:"count"`
}

// HistSnap is a sparse serialization of one Histogram.
type HistSnap struct {
	Buckets []HistBucket `json:"buckets,omitempty"`
	Total   int64        `json:"total"`
	Sum     sim.Time     `json:"sum"`
	Max     sim.Time     `json:"max"`
	Min     sim.Time     `json:"min"`
}

func (h *Histogram) snap() HistSnap {
	s := HistSnap{Total: h.total, Sum: h.sum, Max: h.max, Min: h.min}
	for i, c := range h.counts {
		if c != 0 {
			s.Buckets = append(s.Buckets, HistBucket{Idx: i, Count: c})
		}
	}
	return s
}

func (h *Histogram) restore(s HistSnap) error {
	*h = Histogram{total: s.Total, sum: s.Sum, max: s.Max, min: s.Min}
	for _, b := range s.Buckets {
		if b.Idx < 0 || b.Idx >= histBuckets {
			return fmt.Errorf("trace: histogram bucket index %d out of range", b.Idx)
		}
		h.counts[b.Idx] = b.Count
	}
	return nil
}

// HeatEntry is one page's or block's heat record in a BucketSnap, keyed by
// page or block number.
type HeatEntry struct {
	Key  uint64   `json:"key"`
	Stat HeatStat `json:"stat"`
}

// BucketSnap is one shard's serialized attribution state: its histograms
// and heat entries in ascending key order. Snap writes the whole heat
// index into the first bucket; Restore folds every bucket's heat, so a
// snapshot that splits heat across shards, as the per-shard heat maps of
// earlier versions did, restores to the same reports.
type BucketSnap struct {
	Pages  []HeatEntry               `json:"pages,omitempty"`
	Blocks []HeatEntry               `json:"blocks,omitempty"`
	Lat    [NumLatClasses]HistSnap   `json:"lat"`
	Queue  [NumQueueClasses]HistSnap `json:"queue"`
}

// heatEntries returns eachHeat's entries in ascending key order, nil when
// there are none.
func (t *Tracer) heatEntries(blocks bool) []HeatEntry {
	var out []HeatEntry
	t.eachHeat(blocks, func(k uint64, h *HeatStat) { out = append(out, HeatEntry{Key: k, Stat: *h}) })
	return out
}

// LabelCount is one sync-label registration counter in a Snap.
type LabelCount struct {
	Label string `json:"label"`
	Count int    `json:"count"`
}

// Snap is the tracer's full serializable state. Histograms are captured
// (and restored) per shard, not merged, so a resumed run keeps recording
// into the same shard-confined structures and every merged report stays
// byte-identical to an uninterrupted run's.
type Snap struct {
	Rings   []RingSnap   `json:"rings"`
	Buckets []BucketSnap `json:"shard_buckets"`
	Syncs   []SyncStat   `json:"syncs,omitempty"`
	SyncN   []LabelCount `json:"sync_labels,omitempty"`
	Epochs  []sim.Time   `json:"epochs,omitempty"`
}

// Snap captures the tracer's state in canonical order.
func (t *Tracer) Snap() Snap {
	s := Snap{
		Rings:   make([]RingSnap, len(t.rings)),
		Buckets: make([]BucketSnap, len(t.buckets)),
		Epochs:  t.epochs,
	}
	for i := range t.rings {
		r := &t.rings[i]
		rs := RingSnap{N: r.n, Spill: r.spill}
		if res := r.resident(); res > 0 {
			rs.Resident = make([]Event, 0, res)
			for j := r.n - res; j < r.n; j++ {
				rs.Resident = append(rs.Resident, r.buf[j&r.mask])
			}
		}
		s.Rings[i] = rs
	}
	for i := range t.buckets {
		b := &t.buckets[i]
		var bs BucketSnap
		if i == 0 {
			bs.Pages, bs.Blocks = t.heatEntries(false), t.heatEntries(true)
		}
		for c := range b.lat {
			bs.Lat[c] = b.lat[c].snap()
		}
		for c := range b.queue {
			bs.Queue[c] = b.queue[c].snap()
		}
		s.Buckets[i] = bs
	}
	if len(t.syncs) > 0 {
		s.Syncs = make([]SyncStat, 0, len(t.syncs))
		for _, st := range t.syncs {
			s.Syncs = append(s.Syncs, *st)
		}
		sort.Slice(s.Syncs, func(i, j int) bool { return s.Syncs[i].Obj < s.Syncs[j].Obj })
	}
	if len(t.syncN) > 0 {
		s.SyncN = make([]LabelCount, 0, len(t.syncN))
		for l, n := range t.syncN {
			s.SyncN = append(s.SyncN, LabelCount{Label: l, Count: n})
		}
		sort.Slice(s.SyncN, func(i, j int) bool { return s.SyncN[i].Label < s.SyncN[j].Label })
	}
	return s
}

// Restore overwrites the tracer's state from a snapshot. The tracer must
// have been created with the same Options, processor count, and shard map
// as the one that produced the snapshot, and its heat index sized to the
// machine's pages (the machine rebuilds all of them from the run's
// configuration before restoring).
func (t *Tracer) Restore(s Snap) error {
	if len(s.Rings) != len(t.rings) {
		return fmt.Errorf("trace: snapshot has %d rings, tracer has %d", len(s.Rings), len(t.rings))
	}
	if len(s.Buckets) != len(t.buckets) {
		return fmt.Errorf("trace: snapshot has %d shard buckets, tracer has %d",
			len(s.Buckets), len(t.buckets))
	}
	for i := range t.rings {
		r := &t.rings[i]
		rs := s.Rings[i]
		if uint64(len(rs.Resident)) > uint64(len(r.buf)) {
			return fmt.Errorf("trace: ring %d snapshot holds %d resident events, buffer holds %d",
				i, len(rs.Resident), len(r.buf))
		}
		r.n = rs.N
		r.spill = rs.Spill
		for j := range r.buf {
			r.buf[j] = Event{}
		}
		k := uint64(len(rs.Resident))
		for off, ev := range rs.Resident {
			r.buf[(rs.N-k+uint64(off))&r.mask] = ev
		}
	}
	t.heat.Reset()
	for i := range t.buckets {
		b := &t.buckets[i]
		bs := s.Buckets[i]
		if err := t.restoreHeat(bs); err != nil {
			return err
		}
		for c := range b.lat {
			if err := b.lat[c].restore(bs.Lat[c]); err != nil {
				return err
			}
		}
		for c := range b.queue {
			if err := b.queue[c].restore(bs.Queue[c]); err != nil {
				return err
			}
		}
	}
	t.syncs = make(map[uint64]*SyncStat, len(s.Syncs))
	for _, st := range s.Syncs {
		cp := st
		t.syncs[st.Obj] = &cp
	}
	t.syncN = make(map[string]int, len(s.SyncN))
	for _, lc := range s.SyncN {
		t.syncN[lc.Label] = lc.Count
	}
	t.epochs = s.Epochs
	return nil
}

// restoreHeat folds one bucket's heat entries into the index. It rejects
// an entry outside the sized pages and, through blockHeat.fold, a block
// entry live recording cannot leave; a page entry must record an event,
// like every page the index reports.
func (t *Tracer) restoreHeat(bs BucketSnap) error {
	pages := uint64(t.heat.Len())
	for _, e := range bs.Pages {
		if e.Key >= pages {
			return fmt.Errorf("trace: snapshot page %#x is beyond the machine's %d pages", e.Key, pages)
		}
		if !e.Stat.recorded() {
			return fmt.Errorf("trace: snapshot page %#x heat records no miss, upgrade, invalidation or move", e.Key)
		}
		t.heat.Page(e.Key).Head.add(&e.Stat)
	}
	for _, e := range bs.Blocks {
		page := e.Key >> pagearray.PageBlockShift
		if page >= pages {
			return fmt.Errorf("trace: snapshot block %#x is on page %#x, beyond the machine's %d pages", e.Key, page, pages)
		}
		if err := t.heat.Block(e.Key).fold(&e.Stat); err != nil {
			return fmt.Errorf("trace: snapshot block %#x heat: %w", e.Key, err)
		}
	}
	return nil
}
