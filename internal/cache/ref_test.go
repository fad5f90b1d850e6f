package cache

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// refCache is the cache as it was laid out before its lines were packed:
// three parallel arrays of tags, states and LRU stamps. It is the oracle
// TestPackedLinesMatchReference checks the packed cache against.
type refCache struct {
	sets  int
	assoc int
	tags  []uint64 // block numbers, indexed set*assoc+way
	state []State
	age   []uint64 // LRU stamps
	clock uint64
}

func newRef(cfg Config) *refCache {
	sets := cfg.SizeBytes / cfg.BlockBytes / cfg.Assoc
	if sets < 1 {
		sets = 1
	}
	n := sets * cfg.Assoc
	return &refCache{sets: sets, assoc: cfg.Assoc,
		tags: make([]uint64, n), state: make([]State, n), age: make([]uint64, n)}
}

func (c *refCache) find(block uint64) int {
	base := int(block%uint64(c.sets)) * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.state[base+w] != Invalid && c.tags[base+w] == block {
			return base + w
		}
	}
	return -1
}

func (c *refCache) Lookup(block uint64) State {
	i := c.find(block)
	if i < 0 {
		return Invalid
	}
	c.clock++
	c.age[i] = c.clock
	return c.state[i]
}

func (c *refCache) Peek(block uint64) State {
	i := c.find(block)
	if i < 0 {
		return Invalid
	}
	return c.state[i]
}

func (c *refCache) Insert(block uint64, s State) (Victim, bool) {
	if i := c.find(block); i >= 0 {
		c.clock++
		c.age[i] = c.clock
		c.state[i] = s
		return Victim{}, false
	}
	return c.Fill(block, s)
}

func (c *refCache) Fill(block uint64, s State) (victim Victim, evicted bool) {
	base := int(block%uint64(c.sets)) * c.assoc
	way := -1
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.state[i] == Invalid {
			way = i
			break
		}
		if c.age[i] < oldest {
			oldest = c.age[i]
			way = i
		}
	}
	if c.state[way] != Invalid {
		victim = Victim{Block: c.tags[way], State: c.state[way]}
		evicted = true
	}
	c.clock++
	c.tags[way] = block
	c.state[way] = s
	c.age[way] = c.clock
	return victim, evicted
}

func (c *refCache) PeekVictim(block uint64) (Victim, bool) {
	base := int(block%uint64(c.sets)) * c.assoc
	way := -1
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.state[i] == Invalid {
			return Victim{}, false
		}
		if c.age[i] < oldest {
			oldest = c.age[i]
			way = i
		}
	}
	return Victim{Block: c.tags[way], State: c.state[way]}, true
}

func (c *refCache) SetState(block uint64, s State) {
	c.state[c.find(block)] = s
}

func (c *refCache) Invalidate(block uint64) State {
	i := c.find(block)
	if i < 0 {
		return Invalid
	}
	s := c.state[i]
	c.state[i] = Invalid
	return s
}

func (c *refCache) Downgrade(block uint64) State {
	i := c.find(block)
	if i < 0 {
		return Invalid
	}
	s := c.state[i]
	if s == Modified {
		c.state[i] = Shared
	}
	return s
}

func (c *refCache) Flush() int {
	dirty := 0
	for i := range c.state {
		if c.state[i] == Modified {
			dirty++
		}
		c.state[i] = Invalid
	}
	return dirty
}

func (c *refCache) Snap() Snap {
	return Snap{
		Sets:  c.sets,
		Assoc: c.assoc,
		Tags:  append([]uint64(nil), c.tags...),
		State: append([]State(nil), c.state...),
		Age:   append([]uint64(nil), c.age...),
		Clock: c.clock,
	}
}

// TestPackedLinesMatchReference drives the packed cache and the
// three-array reference with the same seeded random operations, on
// power-of-two and other set counts at associativity 1, 2 and 4, and
// requires equal return values and equal snapshots after every step.
func TestPackedLinesMatchReference(t *testing.T) {
	for _, sets := range []int{8, 16, 6, 12} {
		for _, assoc := range []int{1, 2, 4} {
			cfg := Config{SizeBytes: sets * assoc * 64, BlockBytes: 64, Assoc: assoc}
			t.Run(fmt.Sprintf("sets%d-assoc%d", sets, assoc), func(t *testing.T) {
				for seed := uint64(1); seed <= 20; seed++ {
					checkAgainstReference(t, cfg, seed, 400)
				}
			})
		}
	}
}

func checkAgainstReference(t *testing.T, cfg Config, seed uint64, steps int) {
	t.Helper()
	c, ref := New(cfg), newRef(cfg)
	rng := rand.New(rand.NewPCG(seed, uint64(cfg.Assoc)))
	span := uint64(4 * c.Sets() * c.Assoc())
	block := func() uint64 {
		if rng.IntN(8) == 0 {
			// The top of the block range: the packed key keeps every bit.
			return maxBlock - rng.Uint64N(span)
		}
		return rng.Uint64N(span)
	}
	state := func() State { return State(1 + rng.IntN(2)) }
	for step := 0; step < steps; step++ {
		b := block()
		var op string
		var got, want any
		switch rng.IntN(10) {
		case 0:
			op, got, want = "Lookup", c.Lookup(b), ref.Lookup(b)
		case 1:
			op, got, want = "Peek", c.Peek(b), ref.Peek(b)
		case 2, 3:
			s := state()
			v, e := c.Insert(b, s)
			rv, re := ref.Insert(b, s)
			op, got, want = fmt.Sprintf("Insert(%v)", s), [2]any{v, e}, [2]any{rv, re}
		case 4:
			if c.Peek(b) != Invalid {
				continue // Fill's contract: the block is absent
			}
			s := state()
			v, e := c.Fill(b, s)
			rv, re := ref.Fill(b, s)
			op, got, want = fmt.Sprintf("Fill(%v)", s), [2]any{v, e}, [2]any{rv, re}
		case 5:
			v, e := c.PeekVictim(b)
			rv, re := ref.PeekVictim(b)
			op, got, want = "PeekVictim", [2]any{v, e}, [2]any{rv, re}
		case 6:
			if c.Peek(b) == Invalid {
				continue // SetState's contract: the block is present
			}
			s := State(rng.IntN(3))
			c.SetState(b, s)
			ref.SetState(b, s)
			op = fmt.Sprintf("SetState(%v)", s)
		case 7:
			op, got, want = "Invalidate", c.Invalidate(b), ref.Invalidate(b)
		case 8:
			op, got, want = "Downgrade", c.Downgrade(b), ref.Downgrade(b)
		case 9:
			if rng.IntN(10) != 0 {
				continue
			}
			op, got, want = "Flush", c.Flush(), ref.Flush()
		}
		if got != want {
			t.Fatalf("seed %d step %d: %s of block %#x = %v, reference %v", seed, step, op, b, got, want)
		}
		if s, rs := c.Snap(), ref.Snap(); !reflect.DeepEqual(s, rs) {
			t.Fatalf("seed %d step %d: after %s of block %#x the snapshot differs from the reference's\ngot  %+v\nwant %+v",
				seed, step, op, b, s, rs)
		}
	}
}
