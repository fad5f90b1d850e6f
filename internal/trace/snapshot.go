package trace

import (
	"sort"

	"origin2000/internal/sim"
)

// RingSnap is one processor's serialized event ring: the total-event
// counter, the in-buffer tail (oldest first), and the lossless spill area.
// The buffer geometry is not stored; it follows from the tracer's Options.
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

// HeatEntry is one page's or block's heat record in a BucketSnap, keyed by
// page or block number.
type HeatEntry struct {
	Key  uint64   `json:"key"`
	Stat HeatStat `json:"stat"`
}

// BucketSnap is one shard's serialized attribution state: its histograms
// and heat entries in ascending key order. Snap writes the whole heat
// index into the first bucket.
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
// per shard, not merged, as the shard-confined structures hold them.
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
