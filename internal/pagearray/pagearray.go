// Package pagearray is the page-dense layout the machine's directory, the
// online checker's block mirrors, the tracer's heat index and the sharing
// classifier's tables share.
// Simulated memory is bump-allocated from address zero
// (core.Machine.Alloc), so a page number indexes a slice directly. Each
// touched page owns one record holding a per-page head and a slot per
// 128-byte block of its 16 KB page; untouched pages cost one nil pointer.
//
// Only Grow changes the slice header. Page writes one element of the
// slice, so callers that touch disjoint pages from different goroutines
// need no lock as long as no Grow runs concurrently (the argument of the
// directory and the tracer, DESIGN.md §9 and §11).
package pagearray

import "fmt"

const (
	// PageBlockShift converts a block number to its page number
	// (16 KB page / 128 B block).
	PageBlockShift = 7
	// BlocksPerPage is the number of block slots in a page.
	BlocksPerPage = 1 << PageBlockShift
)

// Page is one page's record: Head holds per-page state and Blocks[i] the
// state of the page's i-th block.
type Page[H, B any] struct {
	Head   H
	Blocks [BlocksPerPage]B
}

// Block returns block's slot in the page; block must lie on it.
func (p *Page[H, B]) Block(block uint64) *B { return &p.Blocks[block&(BlocksPerPage-1)] }

// Array indexes page records by page number. The zero value covers no
// pages.
type Array[H, B any] struct {
	pages []*Page[H, B]
}

// Len reports how many pages the array covers.
func (a *Array[H, B]) Len() int { return len(a.pages) }

// Grow extends the array to cover pages [0, n). It never shrinks, and it
// is the only method that replaces the slice header.
func (a *Array[H, B]) Grow(n int) {
	if n > len(a.pages) {
		a.pages = append(a.pages, make([]*Page[H, B], n-len(a.pages))...)
	}
}

// Page returns page's record, allocating it on first touch. A page the
// array does not cover is a caller bug, and Page panics naming it.
func (a *Array[H, B]) Page(page uint64) *Page[H, B] {
	if page >= uint64(len(a.pages)) {
		panic(beyondError{page, len(a.pages)})
	}
	pg := a.pages[page]
	if pg == nil {
		pg = new(Page[H, B])
		a.pages[page] = pg
	}
	return pg
}

// beyondError is Page's panic value for a page the array does not cover.
// The message is formatted only when the panic is printed, outside Page,
// so that Page and Block stay within the compiler's inlining budget.
type beyondError struct {
	page uint64
	n    int
}

func (e beyondError) Error() string {
	return fmt.Sprintf("pagearray: page %#x is beyond the %d pages sized", e.page, e.n)
}

// Peek returns page's record, or nil if the page was never touched or lies
// beyond the array.
func (a *Array[H, B]) Peek(page uint64) *Page[H, B] {
	if page >= uint64(len(a.pages)) {
		return nil
	}
	return a.pages[page]
}

// Block returns block's slot, allocating its page on first touch.
func (a *Array[H, B]) Block(block uint64) *B { return a.Page(block >> PageBlockShift).Block(block) }

// ForEach visits every touched page in ascending page order.
func (a *Array[H, B]) ForEach(fn func(page uint64, pg *Page[H, B])) {
	for i, pg := range a.pages {
		if pg != nil {
			fn(uint64(i), pg)
		}
	}
}

// BlockOf returns the number of slot i of page.
func BlockOf(page uint64, i int) uint64 { return page<<PageBlockShift | uint64(i) }
