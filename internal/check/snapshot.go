package check

import (
	"origin2000/internal/cache"
	"origin2000/internal/directory"
	"origin2000/internal/sim"
)

// LineSnap is one processor's expected cache line in a BlockSnap.
type LineSnap struct {
	Proc  int         `json:"proc"`
	State cache.State `json:"state"`
	Ver   uint64      `json:"ver"`
}

// BlockSnap is the checker's serialized mirror state for one block. Held is
// sorted by processor; Hist is the history ring's events oldest-first with
// HistN the ring's total-event counter.
type BlockSnap struct {
	Block    uint64            `json:"block"`
	DirState directory.State   `json:"dir_state"`
	Owner    int16             `json:"owner"`
	Sharers  directory.Sharers `json:"sharers"`
	Ver      uint64            `json:"ver"`
	Held     []LineSnap        `json:"held,omitempty"`
	HistN    int               `json:"hist_n,omitempty"`
	Hist     []Event           `json:"hist,omitempty"`
}

// Snap is the checker's full serializable state: every block mirror in
// ascending block order, the per-processor clocks, the violation log, and
// the event counter. The directory and cache attachments are wiring,
// not state.
type Snap struct {
	Blocks        []BlockSnap  `json:"blocks"`
	Clocks        []sim.Time   `json:"clocks"`
	MaxViolations int          `json:"max_violations"`
	Violations    []*Violation `json:"violations,omitempty"`
	Dropped       int          `json:"dropped,omitempty"`
	Events        int64        `json:"events"`
}

// Snap captures the checker's state in canonical order.
func (c *Checker) Snap() Snap {
	s := Snap{
		Clocks:        append([]sim.Time(nil), c.clocks...),
		MaxViolations: c.MaxViolations,
		Violations:    c.violations,
		Dropped:       c.dropped,
		Events:        c.events,
	}
	s.Blocks = []BlockSnap{} // a checker that saw no block snaps "blocks":[]
	c.forEach(func(blk uint64, b *blockMirror) {
		bs := BlockSnap{
			Block:    blk,
			DirState: b.dirState,
			Owner:    b.owner,
			Sharers:  b.sharers,
			Ver:      b.ver,
		}
		if len(b.held) > 0 {
			bs.Held = make([]LineSnap, len(b.held))
			for i, ln := range b.held {
				bs.Held[i] = LineSnap{Proc: int(ln.proc), State: ln.state, Ver: ln.ver}
			}
		}
		if b.hist != nil {
			bs.HistN = b.hist.n
			bs.Hist = b.hist.snapshot()
		}
		s.Blocks = append(s.Blocks, bs)
	})
	return s
}
