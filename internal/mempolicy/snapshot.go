package mempolicy

// PageHome is one page->home mapping in a TableSnap.
type PageHome struct {
	Page uint64 `json:"page"`
	Home int32  `json:"home"`
}

// PageCounts is one page's per-node remote-miss counters in a MigratorSnap.
type PageCounts struct {
	Page   uint64  `json:"page"`
	Counts []int32 `json:"counts"`
}

// MigratorSnap is the serializable state of the migration policy.
type MigratorSnap struct {
	Threshold  int          `json:"threshold"`
	Migrations int64        `json:"migrations"`
	Counts     []PageCounts `json:"counts,omitempty"`
}

// TableSnap is the serializable placement state: the default policy, the
// remap count, and every page->home mapping in ascending page order.
type TableSnap struct {
	Kind string `json:"kind"`
	// Gen is 1 plus the number of times a placed page moved, the value
	// snapshots written by earlier versions of the simulator carry, so
	// those still prove equal on resume.
	Gen      uint32        `json:"gen"`
	Homes    []PageHome    `json:"homes,omitempty"`
	Migrator *MigratorSnap `json:"migrator,omitempty"`
}

// Snap captures the table's placement state in canonical (page-sorted)
// order.
func (t *Table) Snap() TableSnap {
	s := TableSnap{Kind: t.kind.String(), Gen: 1 + t.remaps}
	for page, h := range t.homes {
		if h != 0 {
			s.Homes = append(s.Homes, PageHome{Page: uint64(page), Home: h - 1})
		}
	}
	if t.migrator != nil {
		s.Migrator = t.migrator.snap()
	}
	return s
}

func (m *Migrator) snap() *MigratorSnap {
	s := &MigratorSnap{Threshold: m.Threshold, Migrations: m.Migrations}
	for page, c := range m.counts {
		if c != nil {
			s.Counts = append(s.Counts, PageCounts{Page: uint64(page), Counts: append([]int32(nil), c...)})
		}
	}
	return s
}
