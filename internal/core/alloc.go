package core

import (
	"fmt"

	"origin2000/internal/mempolicy"
)

// Array is a simulated shared allocation. Applications keep their data in
// ordinary Go slices and use the Array only to derive simulated addresses
// for the machine model.
type Array struct {
	m        *Machine
	name     string
	base     uint64
	elemSize uint64
	n        int
	pages    int
}

// Alloc reserves a page-aligned simulated allocation of n elements of
// elemSize bytes. Pages are homed lazily by the machine's default policy
// unless the application places them explicitly with the Place methods.
func (m *Machine) Alloc(name string, n, elemSize int) *Array {
	if n < 0 || elemSize <= 0 {
		panic("core: invalid allocation")
	}
	bytes := uint64(n) * uint64(elemSize)
	pages := int((bytes + mempolicy.PageBytes - 1) / mempolicy.PageBytes)
	if pages == 0 {
		pages = 1
	}
	a := &Array{
		m:        m,
		name:     name,
		base:     m.nextAddr,
		elemSize: uint64(elemSize),
		n:        n,
		pages:    pages,
	}
	m.nextAddr += uint64(pages) * mempolicy.PageBytes
	// Applications allocate before Run, so the directory and the tracer's
	// heat index are sized while no processor runs, and no transition
	// grows them (see trace.Tracer.GrowPages).
	m.dir.GrowPages(m.numPages())
	if m.tracer != nil {
		m.tracer.GrowPages(m.numPages())
	}
	m.allocs = append(m.allocs, a)
	return a
}

// numPages reports how many pages Alloc has handed out: simulated
// addresses are bump-allocated from zero, so every page number in use is
// below it.
func (m *Machine) numPages() int { return int(m.nextAddr / mempolicy.PageBytes) }

// Name returns the allocation's label.
func (a *Array) Name() string { return a.name }

// Len returns the element count.
func (a *Array) Len() int { return a.n }

// ElemSize returns the element size in bytes.
func (a *Array) ElemSize() int { return int(a.elemSize) }

// Pages returns the page count.
func (a *Array) Pages() int { return a.pages }

// Addr returns the simulated address of element i.
func (a *Array) Addr(i int) uint64 {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("core: %s[%d] out of range (len %d)", a.name, i, a.n))
	}
	return a.base + uint64(i)*a.elemSize
}

// Base returns the allocation's base address.
func (a *Array) Base() uint64 { return a.base }

// firstPage returns the allocation's first page number.
func (a *Array) firstPage() uint64 { return mempolicy.PageOf(a.base) }

// place pins page index pg (relative to the array) at node.
func (a *Array) place(pg, node int) {
	m := a.m
	page := a.firstPage() + uint64(pg)
	if m.pages.Placed(page) {
		return // first placement wins (arrays never share pages)
	}
	m.place(page, node)
}

// PlaceAtNode homes the whole array at one node.
func (a *Array) PlaceAtNode(node int) {
	if a.m.cfg.IgnorePlacement {
		return
	}
	for pg := 0; pg < a.pages; pg++ {
		a.place(pg, node%a.m.numNodes)
	}
}

// PlaceOwner homes each page at the node of the logical process
// owner(pageIndex). It is how applications express the paper's "manual"
// (appropriate) data distribution. Ignored when Config.IgnorePlacement is
// set, which is how the round-robin columns of Table 3 are produced.
func (a *Array) PlaceOwner(owner func(pageIndex int) int) {
	if a.m.cfg.IgnorePlacement {
		return
	}
	np := a.m.cfg.Procs
	for pg := 0; pg < a.pages; pg++ {
		o := owner(pg)
		if o < 0 {
			continue
		}
		a.place(pg, a.m.procs[o%np].node)
	}
}

// PlaceBlocked partitions the array's pages into nparts contiguous chunks
// and homes chunk i at logical process i's node — the standard block
// distribution used by the regular applications.
func (a *Array) PlaceBlocked(nparts int) {
	if nparts <= 0 {
		nparts = a.m.cfg.Procs
	}
	a.PlaceOwner(func(pg int) int {
		return pg * nparts / a.pages
	})
}

// PlaceElemBlocked homes each page at the owner of the first element on
// that page, where element ownership is the block distribution of n
// elements over nparts processes. This aligns page homes with element
// partitions even when partitions are not whole pages.
func (a *Array) PlaceElemBlocked(nparts int) {
	if nparts <= 0 {
		nparts = a.m.cfg.Procs
	}
	perPage := int(mempolicy.PageBytes / a.elemSize)
	if perPage == 0 {
		perPage = 1
	}
	a.PlaceOwner(func(pg int) int {
		elem := pg * perPage
		if elem >= a.n {
			elem = a.n - 1
		}
		return elem * nparts / a.n
	})
}
