package check

import (
	"fmt"

	"origin2000/internal/cache"
	"origin2000/internal/directory"
	"origin2000/internal/pagearray"
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
// HistN the ring's total-event counter (the write cursor is HistN mod the
// ring size, so the pair reconstructs the ring array byte-for-byte).
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
// the event counter. The directory view and cache attachments are wiring,
// not state — a restored checker is rebuilt with New/AttachCache first.
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

// Restore overwrites the checker's state from a snapshot. The checker must
// have been created for the same processor count and sized (GrowPages) to
// the machine's pages; a block beyond them is rejected rather than grown
// into.
func (c *Checker) Restore(s Snap) error {
	if len(s.Clocks) != len(c.clocks) {
		return fmt.Errorf("check: snapshot has %d processor clocks, checker has %d",
			len(s.Clocks), len(c.clocks))
	}
	copy(c.clocks, s.Clocks)
	c.MaxViolations = s.MaxViolations
	c.violations = s.Violations
	c.dropped = s.Dropped
	c.events = s.Events
	c.mirrors.Reset()
	pages := uint64(c.mirrors.Len())
	for _, bs := range s.Blocks {
		if page := bs.Block >> pagearray.PageBlockShift; page >= pages {
			return fmt.Errorf("check: snapshot block %#x is on page %#x, beyond the machine's %d pages",
				bs.Block, page, pages)
		}
		b := c.mirror(bs.Block)
		*b = blockMirror{
			seen:     true,
			dirState: bs.DirState,
			owner:    bs.Owner,
			sharers:  bs.Sharers,
			ver:      bs.Ver,
		}
		for _, ln := range bs.Held {
			if ln.Proc < 0 || ln.Proc >= len(c.clocks) {
				return fmt.Errorf("check: block %#x snapshot holds a line for processor %d of %d",
					bs.Block, ln.Proc, len(c.clocks))
			}
			b.set(ln.Proc, ln.State, ln.Ver)
		}
		if err := c.restoreHist(b, bs); err != nil {
			return err
		}
	}
	return nil
}

// restoreHist rebuilds the block's history ring exactly as live recording
// left it: the ring keeps the last min(HistN, ringSize) of HistN events,
// and they end at the write cursor HistN mod ringSize.
func (c *Checker) restoreHist(b *blockMirror, bs BlockSnap) error {
	if bs.HistN < 0 {
		return fmt.Errorf("check: block %#x snapshot history counts %d events", bs.Block, bs.HistN)
	}
	if k := min(bs.HistN, ringSize); len(bs.Hist) != k {
		return fmt.Errorf("check: block %#x snapshot history has %d events, want %d of %d recorded",
			bs.Block, len(bs.Hist), k, bs.HistN)
	}
	if bs.HistN == 0 {
		return nil
	}
	r := &ring{n: bs.HistN}
	for i, e := range bs.Hist {
		if e.Proc < -1 || int(e.Proc) >= len(c.clocks) {
			return fmt.Errorf("check: block %#x snapshot history names processor %d of %d",
				bs.Block, e.Proc, len(c.clocks))
		}
		if e.Ver > maxHistVer {
			return fmt.Errorf("check: block %#x snapshot history version %d exceeds %d",
				bs.Block, e.Ver, uint64(maxHistVer))
		}
		r.ev[(r.n-len(bs.Hist)+i)%ringSize] = packEvent(e)
	}
	b.hist = r
	return nil
}
