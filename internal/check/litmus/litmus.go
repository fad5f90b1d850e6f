// Package litmus checks the simulated machine against sequential
// consistency using classic multiprocessor litmus tests (store buffering,
// message passing, IRIW, coherence order).
//
// The simulator does not carry data values, so the harness supplies them:
// every simulated access has a linearization point — the instant, in virtual
// time, when p.Read/p.Write returns — and because the engine is a
// cooperative direct-execution scheduler, exactly one processor body runs
// between switch points. Reading or writing a harness-level value cell at
// the linearization point therefore observes the engine's own serialization
// of the access stream. Sequential consistency of the simulated machine is
// then a testable property: every outcome the harness can observe, across
// many forced interleavings, must lie in the SC-allowed set of the litmus
// test, and SC-forbidden outcomes (r0=0,r1=0 under store buffering, stale
// data after a flag under message passing, split write order under IRIW)
// must never appear.
//
// Interleavings are forced, not sampled: each run prefixes every processor
// with a different virtual-time delay, shifting the alignment of the
// accesses. The engine is deterministic, so the explored set is reproducible
// run to run.
package litmus

import (
	"fmt"
	"sort"
	"strings"

	"origin2000/internal/cache"
	"origin2000/internal/core"
	"origin2000/internal/sim"
)

// Env gives litmus bodies value-carrying shared locations, one cache block
// per location so the coherence traffic of different locations is
// independent.
type Env struct {
	arr  *core.Array
	vals []int64
}

const elemsPerLoc = core.BlockBytes / 8

// Store writes v to location loc at the access's linearization point.
func (e *Env) Store(p *core.Proc, loc int, v int64) {
	p.Write(e.arr.Addr(loc * elemsPerLoc))
	e.vals[loc] = v
}

// Load returns location loc's value at the access's linearization point.
func (e *Env) Load(p *core.Proc, loc int) int64 {
	p.Read(e.arr.Addr(loc * elemsPerLoc))
	return e.vals[loc]
}

// Body is one processor's program: it runs accesses against env and records
// observations into its register slice.
type Body func(p *core.Proc, env *Env, regs []int64)

// Test is one litmus test.
type Test struct {
	Name string
	// Locs is the number of shared locations.
	Locs int
	// Regs is the number of observation registers.
	Regs int
	// Bodies holds one program per processor.
	Bodies []Body
	// Allowed enumerates every outcome sequential consistency permits, as
	// rendered by formatOutcome.
	Allowed []string
}

// delays are the per-processor start offsets used to force interleavings;
// the grid covers same-time races, hit/miss reorderings and fully separated
// executions.
var delays = []sim.Time{
	0,
	20 * sim.Nanosecond,
	90 * sim.Nanosecond,
	200 * sim.Nanosecond,
	450 * sim.Nanosecond,
	700 * sim.Nanosecond,
	1500 * sim.Nanosecond,
}

func formatOutcome(regs []int64) string {
	parts := make([]string, len(regs))
	for i, v := range regs {
		parts[i] = fmt.Sprintf("r%d=%d", i, v)
	}
	return strings.Join(parts, " ")
}

// Run explores the test under every delay assignment in the grid and
// returns the set of observed outcomes in sorted order. Every run executes
// with the online coherence checker enabled; a checker violation is
// returned as an error.
func Run(t Test) (outcomes []string, err error) {
	n := len(t.Bodies)
	assignment := make([]int, n)
	seen := map[string]bool{}
	for {
		out, runErr := runOnce(t, assignment)
		if runErr != nil {
			return nil, runErr
		}
		seen[out] = true
		// Advance the mixed-radix delay assignment.
		i := 0
		for ; i < n; i++ {
			assignment[i]++
			if assignment[i] < len(delays) {
				break
			}
			assignment[i] = 0
		}
		if i == n {
			break
		}
	}
	for out := range seen {
		outcomes = append(outcomes, out)
	}
	sort.Strings(outcomes)
	return outcomes, nil
}

func runOnce(t Test, assignment []int) (string, error) {
	cfg := core.Config{
		Procs:        len(t.Bodies),
		ProcsPerNode: 1,
		Cache:        cache.Config{SizeBytes: 8 << 10, BlockBytes: core.BlockBytes, Assoc: 2},
		Check:        true,
	}
	m := core.New(cfg)
	env := &Env{
		arr:  m.Alloc(t.Name, t.Locs*elemsPerLoc, 8),
		vals: make([]int64, t.Locs),
	}
	regs := make([]int64, t.Regs)
	if err := m.Run(func(p *core.Proc) {
		if d := delays[assignment[p.ID()]]; d > 0 {
			p.Compute(d)
		}
		t.Bodies[p.ID()](p, env, regs)
	}); err != nil {
		return "", fmt.Errorf("litmus %s %v: %w", t.Name, assignment, err)
	}
	return formatOutcome(regs), nil
}

// Forbidden returns the outcomes in observed that the test's allowed set
// does not contain.
func Forbidden(t Test, observed []string) []string {
	allowed := map[string]bool{}
	for _, a := range t.Allowed {
		allowed[a] = true
	}
	var bad []string
	for _, o := range observed {
		if !allowed[o] {
			bad = append(bad, o)
		}
	}
	return bad
}

// The classic tests. Location and register naming follows the litmus
// literature: x, y are locations 0, 1; registers are numbered in processor
// order.

// StoreBuffering: p0 stores x then loads y; p1 stores y then loads x.
// SC forbids both loads seeing the initial value (r0=0 r1=0), the signature
// outcome of hardware store buffers.
func StoreBuffering() Test {
	return Test{
		Name: "SB", Locs: 2, Regs: 2,
		Bodies: []Body{
			func(p *core.Proc, e *Env, r []int64) {
				e.Store(p, 0, 1)
				r[0] = e.Load(p, 1)
			},
			func(p *core.Proc, e *Env, r []int64) {
				e.Store(p, 1, 1)
				r[1] = e.Load(p, 0)
			},
		},
		Allowed: []string{"r0=0 r1=1", "r0=1 r1=0", "r0=1 r1=1"},
	}
}

// MessagePassing: p0 writes data then sets a flag; p1 reads the flag then
// the data. SC forbids seeing the flag but stale data (r0=1 r1=0).
func MessagePassing() Test {
	return Test{
		Name: "MP", Locs: 2, Regs: 2,
		Bodies: []Body{
			func(p *core.Proc, e *Env, r []int64) {
				e.Store(p, 0, 1) // data
				e.Store(p, 1, 1) // flag
			},
			func(p *core.Proc, e *Env, r []int64) {
				r[0] = e.Load(p, 1) // flag
				r[1] = e.Load(p, 0) // data
			},
		},
		Allowed: []string{"r0=0 r1=0", "r0=0 r1=1", "r0=1 r1=1"},
	}
}

// CoherenceOrder (CoRR): p0 writes x twice; p1 reads x twice. Coherence
// forbids the two reads observing the writes out of order, or a value
// "going backwards".
func CoherenceOrder() Test {
	return Test{
		Name: "CoRR", Locs: 1, Regs: 2,
		Bodies: []Body{
			func(p *core.Proc, e *Env, r []int64) {
				e.Store(p, 0, 1)
				// Hold the window open so the reader can land between the
				// two stores; a back-to-back write hit leaves no gap.
				p.Compute(400 * sim.Nanosecond)
				e.Store(p, 0, 2)
			},
			func(p *core.Proc, e *Env, r []int64) {
				r[0] = e.Load(p, 0)
				p.Compute(150 * sim.Nanosecond)
				r[1] = e.Load(p, 0)
			},
		},
		Allowed: []string{
			"r0=0 r1=0", "r0=0 r1=1", "r0=0 r1=2",
			"r0=1 r1=1", "r0=1 r1=2", "r0=2 r1=2",
		},
	}
}

// IRIW (independent reads of independent writes): p0 writes x, p1 writes y,
// p2 and p3 each read both in opposite orders. SC requires the two readers
// to agree on the order of the independent writes: r0=1 r1=0 r2=1 r3=0
// (p2 sees x before y, p3 sees y before x) is forbidden.
func IRIW() Test {
	t := Test{
		Name: "IRIW", Locs: 2, Regs: 4,
		Bodies: []Body{
			func(p *core.Proc, e *Env, r []int64) { e.Store(p, 0, 1) },
			func(p *core.Proc, e *Env, r []int64) { e.Store(p, 1, 1) },
			func(p *core.Proc, e *Env, r []int64) {
				r[0] = e.Load(p, 0)
				r[1] = e.Load(p, 1)
			},
			func(p *core.Proc, e *Env, r []int64) {
				r[2] = e.Load(p, 1)
				r[3] = e.Load(p, 0)
			},
		},
	}
	// All 16 register combinations except the split-order signature.
	for i := 0; i < 16; i++ {
		r := []int64{int64(i >> 3 & 1), int64(i >> 2 & 1), int64(i >> 1 & 1), int64(i & 1)}
		if r[0] == 1 && r[1] == 0 && r[2] == 1 && r[3] == 0 {
			continue
		}
		t.Allowed = append(t.Allowed, formatOutcome(r))
	}
	return t
}

// All returns every litmus test in the suite.
func All() []Test {
	return []Test{StoreBuffering(), MessagePassing(), CoherenceOrder(), IRIW()}
}
