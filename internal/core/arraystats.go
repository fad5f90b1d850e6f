package core

import (
	"fmt"
	"sort"

	"origin2000/internal/sim"
)

// ArrayStats aggregates the memory-system behaviour of one named
// allocation. The paper's Section 8 lists exactly this as the Origin's
// greatest missing feature — tools to distinguish local from remote misses
// and attribute them to data; the simulator provides it natively.
type ArrayStats struct {
	Name        string
	Bytes       int64
	LocalMisses int64
	RemoteClean int64
	RemoteDirty int64
	Invals      int64    // invalidations caused by writes to this array, upgrades included
	Stall       sim.Time // miss and upgrade stall attributed to this array
}

// Remote reports the remote miss count.
func (a *ArrayStats) Remote() int64 { return a.RemoteClean + a.RemoteDirty }

// ArrayStats returns per-allocation statistics, ordered by descending total
// stall, or nil when the tracer is off. They are folded from the tracer's
// per-page heat: allocations are page-aligned, so every page the tracer
// saw belongs to exactly one of them, and the Stall column sums to the
// processors' local plus remote stall.
func (m *Machine) ArrayStats() []*ArrayStats {
	if m.tracer == nil {
		return nil
	}
	out := make([]*ArrayStats, len(m.allocs))
	for i, a := range m.allocs {
		out[i] = &ArrayStats{Name: a.name, Bytes: int64(a.n) * int64(a.elemSize)}
	}
	for _, h := range m.tracer.TopPages(0) {
		// Allocations ascend from page 0, so a page belongs to the last
		// one that starts at or below it.
		i := sort.Search(len(m.allocs), func(i int) bool { return m.allocs[i].firstPage() > h.Key }) - 1
		a := out[i]
		a.LocalMisses += h.LocalMisses
		a.RemoteClean += h.RemoteClean
		a.RemoteDirty += h.RemoteDirty
		a.Invals += h.InvalsSent
		a.Stall += h.Stall
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Stall > out[j].Stall })
	return out
}

// ArrayReport renders the per-allocation statistics as table rows, header
// first. Same-named allocations (e.g. the per-lock lines) are merged, and
// allocations with no miss or upgrade are omitted.
func (m *Machine) ArrayReport() [][]string {
	merged := map[string]*ArrayStats{}
	var order []string
	for _, a := range m.ArrayStats() {
		t, ok := merged[a.Name]
		if !ok {
			t = &ArrayStats{Name: a.Name}
			merged[a.Name] = t
			order = append(order, a.Name)
		}
		t.Bytes += a.Bytes
		t.LocalMisses += a.LocalMisses
		t.RemoteClean += a.RemoteClean
		t.RemoteDirty += a.RemoteDirty
		t.Invals += a.Invals
		t.Stall += a.Stall
	}
	sort.Slice(order, func(i, j int) bool {
		return merged[order[i]].Stall > merged[order[j]].Stall
	})
	rows := [][]string{{"Array", "Bytes", "Local miss", "Remote clean", "Remote dirty", "Invals", "Stall (ms)"}}
	for _, name := range order {
		a := merged[name]
		if a.Stall == 0 { // every miss and upgrade stalls
			continue
		}
		rows = append(rows, []string{
			a.Name,
			fmt.Sprintf("%d", a.Bytes),
			fmt.Sprintf("%d", a.LocalMisses),
			fmt.Sprintf("%d", a.RemoteClean),
			fmt.Sprintf("%d", a.RemoteDirty),
			fmt.Sprintf("%d", a.Invals),
			fmt.Sprintf("%.3f", a.Stall.Milliseconds()),
		})
	}
	return rows
}
