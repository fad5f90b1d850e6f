package trace

import (
	"fmt"
	"sort"

	"origin2000/internal/sim"
)

// HeatStat aggregates the coherence behaviour of one page or one block —
// the per-data attribution the paper performs by hand (and Section 8 wishes
// the Origin's tools provided) built online from the event stream.
type HeatStat struct {
	LocalMisses   int64
	RemoteClean   int64
	RemoteDirty   int64
	Upgrades      int64
	InvalsSent    int64 // invalidations caused by writes to this page/block
	InvalsRecv    int64 // cached copies of this page/block invalidated
	Interventions int64 // remote-dirty interventions forwarded for it
	Migrations    int64 // page moves (dynamic migration or manual re-home)
	MaxSharers    int32 // widest sharer set observed at a miss
	SharerSum     int64 // sum of observed sharer widths (mean = /Samples)
	Samples       int64 // miss samples contributing to SharerSum
	Stall         sim.Time
}

// RemoteMisses reports the remote (clean + dirty) miss count.
func (h *HeatStat) RemoteMisses() int64 { return h.RemoteClean + h.RemoteDirty }

// Misses reports the total demand-miss count.
func (h *HeatStat) Misses() int64 { return h.LocalMisses + h.RemoteMisses() }

// MeanSharers reports the mean sharer-set width over miss samples.
func (h *HeatStat) MeanSharers() float64 {
	if h.Samples == 0 {
		return 0
	}
	return float64(h.SharerSum) / float64(h.Samples)
}

func (h *HeatStat) observe(kind Kind, stall sim.Time, invals, sharers int) {
	switch kind {
	case EvMissLocal:
		h.LocalMisses++
	case EvMissRemoteClean:
		h.RemoteClean++
	case EvMissRemoteDirty:
		h.RemoteDirty++
		h.Interventions++
	case EvUpgrade:
		h.Upgrades++
	}
	h.InvalsSent += int64(invals)
	h.Stall += stall
	if int32(sharers) > h.MaxSharers {
		h.MaxSharers = int32(sharers)
	}
	h.SharerSum += int64(sharers)
	h.Samples++
}

// recorded reports whether any event reached this page or block: a miss,
// an upgrade, a received invalidation or a page move. Every entry the
// index reports has recorded one.
func (h *HeatStat) recorded() bool {
	return h.Misses()+h.Upgrades > 0 || h.InvalsRecv > 0 || h.Migrations > 0
}

// blockHeat is one block's slot in the heat index: a HeatStat with 32-bit
// counts, as in sharing's blockState (a single block absorbing 4 billion
// events is beyond any tracked configuration). Three HeatStat fields are
// not stored, because for a block they follow from the others: observe
// counts an intervention exactly when it counts a remote-dirty miss and a
// sample exactly when it counts one of the four miss classes, and only
// PageRemapped, which touches pages alone, counts migrations. Stall and
// the sharer sum stay 64-bit. The record is 48 bytes.
type blockHeat struct {
	localMisses, remoteClean, remoteDirty, upgrades uint32
	invalsSent, invalsRecv                          uint32
	maxSharers                                      int32
	sharerSum                                       int64
	stall                                           sim.Time
}

func (b *blockHeat) observe(kind Kind, stall sim.Time, invals, sharers int) {
	switch kind {
	case EvMissLocal:
		b.localMisses++
	case EvMissRemoteClean:
		b.remoteClean++
	case EvMissRemoteDirty:
		b.remoteDirty++
	case EvUpgrade:
		b.upgrades++
	}
	b.invalsSent += uint32(invals)
	b.stall += stall
	if int32(sharers) > b.maxSharers {
		b.maxSharers = int32(sharers)
	}
	b.sharerSum += int64(sharers)
}

// stat expands the slot into the report type.
func (b *blockHeat) stat() HeatStat {
	h := HeatStat{
		LocalMisses: int64(b.localMisses),
		RemoteClean: int64(b.remoteClean),
		RemoteDirty: int64(b.remoteDirty),
		Upgrades:    int64(b.upgrades),
		InvalsSent:  int64(b.invalsSent),
		InvalsRecv:  int64(b.invalsRecv),
		MaxSharers:  b.maxSharers,
		SharerSum:   b.sharerSum,
		Stall:       b.stall,
	}
	h.Interventions = h.RemoteDirty
	h.Samples = h.Misses() + h.Upgrades
	return h
}

// Heat is one ranked heatmap entry: a page or block number plus its stats.
type Heat struct {
	Key uint64
	HeatStat
}

// rankHeat sorts entries in place by remote misses, then total stall,
// then key — the paper's diagnostic order (remote traffic is what kills
// scaling) — and returns them.
func rankHeat(out []Heat) []Heat {
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].RemoteMisses(), out[j].RemoteMisses()
		if ri != rj {
			return ri > rj
		}
		if out[i].Stall != out[j].Stall {
			return out[i].Stall > out[j].Stall
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// SyncStat aggregates waiting at one synchronization object.
type SyncStat struct {
	Obj       uint64 // object id (base address of the object's first line)
	Label     string // "barrier#0", "lock#3", ... (registration order)
	Waits     int64  // blocking wait episodes
	Acquires  int64  // lock acquisitions (contended or not)
	TotalWait sim.Time
	MaxWait   sim.Time
}

func (s *SyncStat) observe(span sim.Time) {
	s.TotalWait += span
	if span > s.MaxWait {
		s.MaxWait = span
	}
}

// heatRows renders ranked heat entries as table rows (header first). keyFmt
// names the key column ("page", "block").
func heatRows(entries []Heat, keyCol string, topN int) [][]string {
	rows := [][]string{{
		keyCol, "local", "rem-clean", "rem-dirty", "upgrades",
		"inv-sent", "inv-recv", "interv", "migr", "sharers(max/mean)", "stall(ms)",
	}}
	for i, e := range entries {
		if topN > 0 && i >= topN {
			break
		}
		rows = append(rows, []string{
			fmt.Sprintf("%#x", e.Key),
			fmt.Sprint(e.LocalMisses),
			fmt.Sprint(e.RemoteClean),
			fmt.Sprint(e.RemoteDirty),
			fmt.Sprint(e.Upgrades),
			fmt.Sprint(e.InvalsSent),
			fmt.Sprint(e.InvalsRecv),
			fmt.Sprint(e.Interventions),
			fmt.Sprint(e.Migrations),
			fmt.Sprintf("%d/%.1f", e.MaxSharers, e.MeanSharers()),
			fmt.Sprintf("%.3f", e.Stall.Milliseconds()),
		})
	}
	return rows
}
