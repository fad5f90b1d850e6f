package cache

import "testing"

// BenchmarkLookupHit measures the cache hit path.
func BenchmarkLookupHit(b *testing.B) {
	c := New(Origin2000L2)
	c.Insert(42, Shared)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(42)
	}
}

// BenchmarkInsertEvict measures insertion with LRU eviction pressure.
func BenchmarkInsertEvict(b *testing.B) {
	c := New(Config{SizeBytes: 64 << 10, BlockBytes: 128, Assoc: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(uint64(i), Shared)
	}
}

// BenchmarkLookupSpread measures probes spread over 128 caches of the
// Origin L2 at a sixteenth of its size, as the 128-processor Figure 2 runs
// make them: every probe lands in a pseudo-random set of a pseudo-random
// cache, so the caches' lines, not one hot set, set its cost.
func BenchmarkLookupSpread(b *testing.B) {
	const caches = 128
	cfg := Config{SizeBytes: Origin2000L2.SizeBytes / 16, BlockBytes: 128, Assoc: 2}
	cs := make([]*Cache, caches)
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	span := uint64(2 * cfg.SizeBytes / cfg.BlockBytes)
	for i := range cs {
		cs[i] = New(cfg)
		for j := 0; j < cfg.SizeBytes/cfg.BlockBytes; j++ {
			cs[i].Insert(next()%span, Shared)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := next()
		stateSink = cs[r%caches].Lookup((r >> 8) % span)
	}
}

// stateSink keeps benchmarked probes' results live.
var stateSink State
