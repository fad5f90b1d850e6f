package cache

// Snap is the serializable state of one cache: geometry plus the raw line
// arrays. Tags and LRU stamps are captured verbatim (including lines that
// are currently Invalid) so a checkpoint's digest of them matches a live
// re-capture's at the same virtual-time point.
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
	return Snap{
		Sets:  c.sets,
		Assoc: c.assoc,
		Tags:  append([]uint64(nil), c.tags...),
		State: append([]State(nil), c.state...),
		Age:   append([]uint64(nil), c.age...),
		Clock: c.clock,
	}
}
