package sim

// procHeap is a binary min-heap of runnable processors ordered by
// (clock, id). The id tie-break makes scheduling deterministic.
type procHeap []*Proc

func (h procHeap) less(i, j int) bool {
	if h[i].now != h[j].now {
		return h[i].now < h[j].now
	}
	return h[i].id < h[j].id
}

func (h procHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
}

func (h *procHeap) push(p *Proc) {
	*h = append(*h, p)
	h.up(len(*h) - 1)
}

func (h *procHeap) pop() *Proc {
	old := *h
	n := len(old)
	p := old[0]
	old.swap(0, n-1)
	*h = old[:n-1]
	if n > 1 {
		h.down(0)
	}
	return p
}

// grow appends p without restoring heap order; callers follow a batch of
// grow calls with one reinit. Splitting the two turns k inserts into one
// O(n) rebuild (see Proc.WakeBatch).
func (h *procHeap) grow(p *Proc) {
	*h = append(*h, p)
}

// reinit restores heap order after a batch of grow appends: a bottom-up
// heapify.
func (h *procHeap) reinit() {
	for i := len(*h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h procHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h procHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
