// Package cache models a set-associative processor cache with MSI line
// states, matching the Origin2000's unified 4 MB, 2-way, 128-byte-block
// second-level cache. The machine model (internal/core) drives it with
// block numbers; the cache answers hit/miss and tracks victims.
package cache

import "fmt"

// State is the coherence state of a cached block.
type State uint8

const (
	// Invalid means the block is not present.
	Invalid State = iota
	// Shared means the block is present read-only; memory is up to date.
	Shared
	// Modified means this cache owns the only, dirty copy.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "Invalid"
	case Shared:
		return "Shared"
	case Modified:
		return "Modified"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Config sizes a cache.
type Config struct {
	// SizeBytes is the total capacity, e.g. 4 << 20.
	SizeBytes int
	// BlockBytes is the line size, e.g. 128.
	BlockBytes int
	// Assoc is the associativity, e.g. 2.
	Assoc int
}

// Origin2000L2 is the secondary cache of each R10000 in the paper's machine.
var Origin2000L2 = Config{SizeBytes: 4 << 20, BlockBytes: 128, Assoc: 2}

// Cache is one processor's cache.
type Cache struct {
	sets    int
	setMask int // sets-1 when sets is a power of two, else -1
	assoc   int
	lines   []line // indexed set*assoc+way
	clock   uint64
}

// line is one cache line: its block number and coherence state packed into
// one key, and its LRU stamp. A 2-way set is then 32 bytes, one host cache
// line, so a probe touches one host line. An invalidated line keeps its
// block number: only the state bits clear.
type line struct {
	key uint64 // block<<stateBits | state
	age uint64 // LRU stamp
}

const (
	stateBits = 2
	stateMask = 1<<stateBits - 1
	// maxBlock is the largest block number a key can hold.
	maxBlock = 1<<(64-stateBits) - 1
)

func (l line) block() uint64 { return l.key >> stateBits }
func (l line) state() State  { return State(l.key & stateMask) }

// setState replaces the line's state, keeping its block number.
func (l *line) setState(s State) { l.key = l.key&^stateMask | uint64(s) }

// New creates a cache with the given geometry.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.BlockBytes <= 0 || cfg.Assoc <= 0 {
		panic("cache: invalid config")
	}
	lines := cfg.SizeBytes / cfg.BlockBytes
	sets := lines / cfg.Assoc
	if sets < 1 {
		sets = 1
	}
	mask := -1
	if sets&(sets-1) == 0 {
		mask = sets - 1 // power-of-two geometry: index with a mask, not a divide
	}
	return &Cache{
		sets:    sets,
		setMask: mask,
		assoc:   cfg.Assoc,
		lines:   make([]line, sets*cfg.Assoc),
	}
}

// Sets reports the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Assoc reports the associativity.
func (c *Cache) Assoc() int { return c.assoc }

func (c *Cache) setOf(block uint64) int {
	if m := c.setMask; m >= 0 {
		return int(block) & m
	}
	return int(block % uint64(c.sets))
}

// find returns the index of block's valid line, or -1.
func (c *Cache) find(block uint64) int {
	base := c.setOf(block) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if k := c.lines[i].key; k>>stateBits == block && k&stateMask != 0 {
			return i
		}
	}
	return -1
}

// Lookup reports the state of block and refreshes its LRU position on a hit.
func (c *Cache) Lookup(block uint64) State {
	i := c.find(block)
	if i < 0 {
		return Invalid
	}
	c.clock++
	c.lines[i].age = c.clock
	return c.lines[i].state()
}

// Peek reports the state of block without touching LRU.
func (c *Cache) Peek(block uint64) State {
	i := c.find(block)
	if i < 0 {
		return Invalid
	}
	return c.lines[i].state()
}

// Victim describes a block displaced by Insert.
type Victim struct {
	Block uint64
	State State // Shared (silent drop) or Modified (writeback needed)
}

// Insert places block with the given state, evicting the LRU line of its
// set if necessary. It returns the displaced line, if any. Inserting a
// block that is already present just updates its state.
func (c *Cache) Insert(block uint64, s State) (victim Victim, evicted bool) {
	if i := c.find(block); i >= 0 {
		if s == Invalid {
			panic("cache: inserting Invalid")
		}
		c.clock++
		c.lines[i].age = c.clock
		c.lines[i].setState(s)
		return Victim{}, false
	}
	return c.Fill(block, s)
}

// Fill places a block the caller knows is absent (it just observed a miss
// with Lookup or Peek and nothing has touched this cache since), skipping
// the presence scan that Insert would repeat. The miss path pairs Lookup
// with Fill so each set is walked once, not twice.
func (c *Cache) Fill(block uint64, s State) (victim Victim, evicted bool) {
	if s == Invalid {
		panic("cache: inserting Invalid")
	}
	if block > maxBlock {
		panic("cache: block number out of range")
	}
	base := c.setOf(block) * c.assoc
	// Prefer an invalid way; otherwise evict the least recently used.
	way := -1
	var oldest uint64 = ^uint64(0)
	for i := base; i < base+c.assoc; i++ {
		l := &c.lines[i]
		if l.state() == Invalid {
			way = i
			break
		}
		if l.age < oldest {
			oldest = l.age
			way = i
		}
	}
	l := &c.lines[way]
	if st := l.state(); st != Invalid {
		victim = Victim{Block: l.block(), State: st}
		evicted = true
	}
	c.clock++
	*l = line{key: block<<stateBits | uint64(s), age: c.clock}
	return victim, evicted
}

// PeekVictim predicts, without mutating any cache state, the line Fill
// would displace to make room for block. It replicates Fill's way choice
// exactly (an invalid way first, else the LRU way), so the engine's shard
// classifier can learn a miss's victim — whose home directory the eviction
// will touch — before deciding whether the transaction stays shard-local.
func (c *Cache) PeekVictim(block uint64) (victim Victim, evicted bool) {
	base := c.setOf(block) * c.assoc
	way := -1
	var oldest uint64 = ^uint64(0)
	for i := base; i < base+c.assoc; i++ {
		l := &c.lines[i]
		if l.state() == Invalid {
			return Victim{}, false
		}
		if l.age < oldest {
			oldest = l.age
			way = i
		}
	}
	l := &c.lines[way]
	return Victim{Block: l.block(), State: l.state()}, true
}

// SetState changes the state of a present block; it panics if absent.
func (c *Cache) SetState(block uint64, s State) {
	i := c.find(block)
	if i < 0 {
		panic("cache: SetState on absent block")
	}
	c.lines[i].setState(s)
}

// Invalidate removes block, returning its previous state (Invalid if the
// block was not present — invalidations can race with evictions).
func (c *Cache) Invalidate(block uint64) State {
	i := c.find(block)
	if i < 0 {
		return Invalid
	}
	s := c.lines[i].state()
	c.lines[i].setState(Invalid)
	return s
}

// Downgrade moves a Modified block to Shared (for remote read
// interventions), returning its previous state.
func (c *Cache) Downgrade(block uint64) State {
	i := c.find(block)
	if i < 0 {
		return Invalid
	}
	s := c.lines[i].state()
	if s == Modified {
		c.lines[i].setState(Shared)
	}
	return s
}

// Flush invalidates every line. It returns the number of Modified lines
// dropped (tests use it to verify writeback accounting).
func (c *Cache) Flush() int {
	dirty := 0
	for i := range c.lines {
		if c.lines[i].state() == Modified {
			dirty++
		}
		c.lines[i].setState(Invalid)
	}
	return dirty
}

// CountValid reports the number of valid lines (test/diagnostic aid).
func (c *Cache) CountValid() int {
	n := 0
	for _, l := range c.lines {
		if l.state() != Invalid {
			n++
		}
	}
	return n
}
