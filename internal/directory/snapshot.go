package directory

// BlockSnap is the serializable directory record of one active block.
type BlockSnap struct {
	Block   uint64  `json:"block"`
	State   State   `json:"state"`
	Sharers Sharers `json:"sharers"`
	Owner   int16   `json:"owner"`
}

// Snap is the serializable state of one home node's share of the
// directory: every block with active (non-Unowned) state on a page the
// node homes, in ascending block order — the same canonical order ForEach
// visits — plus the node's incremental state-mix counters.
type Snap struct {
	Blocks    []BlockSnap `json:"blocks"`
	Shared    int         `json:"shared"`
	Exclusive int         `json:"exclusive"`
}

// Snaps captures the directory as one Snap per home node, indexed by node.
func (d *Directory) Snaps() []Snap {
	s := make([]Snap, len(d.nodes))
	for i, n := range d.nodes {
		s[i].Shared, s[i].Exclusive = n.nShared, n.nExclusive
	}
	d.ForEach(func(block uint64, e Entry) {
		ns := &s[d.home(block)]
		ns.Blocks = append(ns.Blocks, BlockSnap{
			Block:   block,
			State:   e.State,
			Sharers: e.Sharers,
			Owner:   e.Owner,
		})
	})
	return s
}
