package main

import (
	"fmt"
	"runtime"
	"time"

	"origin2000/internal/cache"
	"origin2000/internal/core"
	"origin2000/internal/directory"
	"origin2000/internal/sim"
)

// Unit costs: microbenchmarks that call one layer's public functions in a
// fixed-count loop. Each returns nanoseconds per operation for one
// repetition; the benchmark reports the median of several repetitions.

// sink keeps the compiler from discarding measured results.
var sink int

// unitCost is one microbenchmark.
type unitCost struct {
	name string
	rep  func() (float64, error)
}

var unitCosts = []unitCost{
	{"core.read_hit_ns", func() (float64, error) { return readNS("hit") }},
	{"core.read_local_miss_ns", func() (float64, error) { return readNS("local") }},
	{"core.read_remote_miss_ns", func() (float64, error) { return readNS("remote") }},
	{"cache.lookup_ns", cacheLookupNS},
	{"directory.write_fanout_ns", directoryWriteNS},
	{"topology.route_ns", routeNS},
	{"sim.handoff_ns", handoffNS},
	{"host.calib_ns", func() (float64, error) { return calibNS(), nil }},
}

// measureUnitCosts returns the distribution of reps repetitions of every
// unit cost.
func measureUnitCosts(reps int) (map[string]summary, error) {
	out := map[string]summary{}
	for _, u := range unitCosts {
		xs := make([]float64, reps)
		for i := range xs {
			v, err := u.rep()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", u.name, err)
			}
			xs[i] = v
		}
		out[u.name] = summarize(xs)
	}
	return out, nil
}

// calibNS is the host calibration: one round trip of a bare goroutine
// ping-pong over buffered channels, the same handoff the engine uses.
func calibNS() float64 {
	const n = 50000
	return float64(pingPong(n).Nanoseconds()) / n
}

// pingPong times n round trips between two goroutines.
func pingPong(n int) time.Duration {
	ping, pong := make(chan struct{}, 1), make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			<-ping
			pong <- struct{}{}
		}
	}()
	start := time.Now()
	for i := 0; i < n; i++ {
		ping <- struct{}{}
		<-pong
	}
	d := time.Since(start)
	<-done
	return d
}

// refNominalS is hostRef's median time on the host the benchmark was sized
// on (README.md names it), so scaled timings are seconds on that host.
const refNominalS = 0.025

// hostRef times the host-speed reference: a fixed amount of work in the
// benchmark's own code, so that no change to the simulator moves it. On a
// shared host the simulator's speed drifts by up to 1.8x within minutes.
// Most of the reference is a miniature of the engine, which drifts with
// it: a fresh 8 MiB table is allocated and filled, as every run builds its
// machine from fresh memory, then two goroutines take turns on it, handing
// control over a buffered channel as the engine's processors do, each turn
// updating random words. The rest, about a quarter on the sizing host, is
// register-only arithmetic, which the drift barely touches: across 80
// measured runs the simulator drifted by the reference's drift to the
// power 0.55 to 0.9, not 1, so the reference dilutes its drift by the
// same amount. Garbage is collected before and after, outside the timing.
func hostRef() float64 {
	const words, turns, perTurn, arith = 1 << 20, 5000, 64, 4_000_000
	runtime.GC()
	start := time.Now()
	x := uint64(1)
	for i := 0; i < arith; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	table := make([]uint64, words)
	for i := range table {
		table[i] = uint64(i)
	}
	work := func(x uint64) {
		for i := 0; i < perTurn; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x%words] += table[(x>>32)%words]
		}
	}
	ping, pong := make(chan struct{}, 1), make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < turns; i++ {
			<-ping
			work(uint64(2*i + 1))
			pong <- struct{}{}
		}
	}()
	for i := 0; i < turns; i++ {
		ping <- struct{}{}
		<-pong
		work(uint64(2*i + 2))
	}
	<-done
	d := time.Since(start).Seconds()
	sink += int(table[turns] + x)
	runtime.GC()
	return d
}

// handoffNS is one engine round trip: two simulated processors on a 1 ns
// window, each advancing 10 ns per step, so every step hands control to
// the other processor.
func handoffNS() (float64, error) {
	const n = 50000
	e := sim.NewEngine(2, sim.Nanosecond)
	start := time.Now()
	err := e.Run(func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Advance(10*sim.Nanosecond, sim.StatBusy)
		}
	})
	return float64(time.Since(start).Nanoseconds()) / n, err
}

// readNS times the demand read path: a cache hit, a local miss, or a
// remote miss to a page homed on another node, one read per operation.
func readNS(mode string) (float64, error) {
	const n = 100000
	cfg := core.Origin2000(1)
	if mode != "hit" {
		cfg.Cache.SizeBytes = 32 << 10 // strided reads always miss
	}
	if mode == "remote" {
		cfg = core.Origin2000(64)
		cfg.Cache.SizeBytes = 32 << 10
	}
	m := core.New(cfg)
	arr := m.Alloc("a", 1<<20, 8)
	if mode == "remote" {
		arr.PlaceAtNode(17)
	}
	var d time.Duration
	err := m.RunOne(func(p *core.Proc) {
		p.Read(arr.Addr(0))
		start := time.Now()
		for i := 0; i < n; i++ {
			if mode == "hit" {
				p.Read(arr.Addr(0))
			} else {
				p.Read(arr.Addr((i * 16) % (1 << 20)))
			}
		}
		d = time.Since(start)
	})
	return float64(d.Nanoseconds()) / n, err
}

// cacheLookupNS times Cache.Lookup over twice the cache's lines, so half
// the lookups hit.
func cacheLookupNS() (float64, error) {
	const n = 1000000
	c := cache.New(cache.Config{SizeBytes: 256 << 10, BlockBytes: 128, Assoc: 2})
	lines := uint64(c.Sets() * c.Assoc())
	for b := uint64(0); b < lines; b++ {
		c.Insert(b, cache.Shared)
	}
	hits := 0
	start := time.Now()
	for i := uint64(0); i < n; i++ {
		if c.Lookup(i%(2*lines)) != cache.Invalid {
			hits++
		}
	}
	d := time.Since(start)
	sink += hits
	return float64(d.Nanoseconds()) / n, nil
}

// directoryWriteNS times a shared write's invalidation fan-out to 15
// sharers, and the 15 reads that re-share the block.
func directoryWriteNS() (float64, error) {
	const n = 20000
	d := directory.New()
	for s := 0; s < 16; s++ {
		d.Read(1, s)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		d.Write(1, 0)
		for s := 1; s < 16; s++ {
			d.Read(1, s)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / n, nil
}

// routeNS times Network.Route between every pair of routers of the
// 128-processor machine's interconnect.
func routeNS() (float64, error) {
	const reps = 1000
	f := core.New(core.Origin2000(128)).Fabric()
	r := f.NumRouters()
	hops := 0
	start := time.Now()
	for k := 0; k < reps; k++ {
		for a := 0; a < r; a++ {
			for b := 0; b < r; b++ {
				hops += f.Route(a, b).Hops
			}
		}
	}
	d := time.Since(start)
	sink += hops
	return float64(d.Nanoseconds()) / float64(reps*r*r), nil
}
