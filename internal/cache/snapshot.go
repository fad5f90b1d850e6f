package cache

// Snap is the serializable state of one cache: geometry plus its lines,
// unpacked into one array per field. Tags and LRU stamps are captured
// verbatim (including lines that are currently Invalid) so a checkpoint's
// digest of them matches a live re-capture's at the same virtual-time point.
type Snap struct {
	Sets  int      `json:"sets"`
	Assoc int      `json:"assoc"`
	Tags  []uint64 `json:"tags"`
	State []State  `json:"state"`
	Age   []uint64 `json:"age"`
	Clock uint64   `json:"clock"`
}

// Snap captures the cache's full state.
func (c *Cache) Snap() Snap {
	n := len(c.lines)
	s := Snap{
		Sets:  c.sets,
		Assoc: c.assoc,
		Tags:  make([]uint64, n),
		State: make([]State, n),
		Age:   make([]uint64, n),
		Clock: c.clock,
	}
	for i, l := range c.lines {
		s.Tags[i], s.State[i], s.Age[i] = l.block(), l.state(), l.age
	}
	return s
}
