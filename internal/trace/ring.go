package trace

// ring is one processor's event buffer: a fixed-size power-of-two ring.
// In the default (lossy) mode the ring overwrites its oldest events, so a
// full run keeps the most recent window at a fixed memory bound. In
// lossless mode a full ring is spilled to an ordinary slice before being
// overwritten, so no event is lost (at unbounded memory cost).
type ring struct {
	buf      []Event
	mask     uint64
	n        uint64 // events ever recorded
	spill    []Event
	lossless bool
}

func newRing(size int, lossless bool) ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	// Round up to a power of two so indexing is a mask.
	cap := 1
	for cap < size {
		cap <<= 1
	}
	return ring{buf: make([]Event, cap), mask: uint64(cap - 1), lossless: lossless}
}

// record appends one event. In lossy mode it never allocates.
func (r *ring) record(ev Event) {
	i := r.n & r.mask
	if r.lossless && r.n > 0 && i == 0 {
		// The ring is full and about to wrap: move its contents (which
		// are exactly in record order, oldest first) to the spill area.
		r.spill = append(r.spill, r.buf...)
	}
	r.buf[i] = ev
	r.n++
}

// resident reports how many events currently live in the ring buffer.
func (r *ring) resident() uint64 {
	if r.n == 0 {
		return 0
	}
	if r.lossless {
		// Everything since the last spill; the buffer has wrapped
		// ((n-1) mod size)+1 events into the current epoch.
		return ((r.n - 1) & r.mask) + 1
	}
	if size := uint64(len(r.buf)); r.n > size {
		return size
	}
	return r.n
}

// dropped reports how many events were overwritten and lost.
func (r *ring) dropped() uint64 {
	if r.lossless {
		return 0
	}
	return r.n - r.resident()
}

// residentRuns returns the events in the ring buffer as its two
// contiguous runs, older first: the resident stream is older followed by
// newer, and newer is empty unless the resident window wraps the buffer.
func (r *ring) residentRuns() (older, newer []Event) {
	res := r.resident()
	start := (r.n - res) & r.mask
	if end := start + res; end > uint64(len(r.buf)) {
		return r.buf[start:], r.buf[:end-uint64(len(r.buf))]
	}
	return r.buf[start : start+res], nil
}

// events returns the surviving stream, oldest first.
func (r *ring) events() []Event {
	older, newer := r.residentRuns()
	out := make([]Event, 0, len(r.spill)+len(older)+len(newer))
	out = append(out, r.spill...)
	out = append(out, older...)
	return append(out, newer...)
}
