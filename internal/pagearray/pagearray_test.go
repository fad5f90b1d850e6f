package pagearray

import (
	"fmt"
	"strings"
	"testing"
)

func TestArrayIndexesPagesDirectly(t *testing.T) {
	var a Array[int, uint32]
	a.Grow(4)
	a.Grow(2) // never shrinks
	if a.Len() != 4 {
		t.Fatalf("Len = %d, want 4", a.Len())
	}
	if a.Peek(1) != nil || a.Peek(9) != nil {
		t.Fatal("Peek materialized a page")
	}
	*a.Block(BlockOf(3, 5)) = 7
	a.Page(1).Head = 2
	if got := a.Page(3).Blocks[5]; got != 7 {
		t.Errorf("block slot = %d, want 7", got)
	}
	var visited []uint64
	a.ForEach(func(page uint64, pg *Page[int, uint32]) { visited = append(visited, page) })
	if fmt.Sprint(visited) != "[1 3]" {
		t.Errorf("ForEach visited %v, want [1 3]", visited)
	}
}

func TestPageBeyondSizePanicsNamingIt(t *testing.T) {
	var a Array[struct{}, byte]
	a.Grow(2)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "page 0x2 ") {
			t.Errorf("panic = %v, want one naming page 0x2", r)
		}
	}()
	a.Block(BlockOf(2, 0))
}
