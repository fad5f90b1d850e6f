package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"origin2000/internal/sim"
)

// referenceExportPerfetto is the fmt-based encoder ExportPerfetto replaced,
// kept as the oracle its output must match byte for byte.
func referenceExportPerfetto(w io.Writer, procs [][]Event) error {
	ts := func(t sim.Time) string {
		return fmt.Sprintf("%d.%06d", t/sim.Microsecond, t%sim.Microsecond)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"tool\":%q,\"procs\":\"%d\"},\"traceEvents\":[\n",
		perfettoTool, len(procs))
	fmt.Fprintf(bw, "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"origin2000\"}}")
	for p := range procs {
		fmt.Fprintf(bw, ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"cpu%d\"}}", p, p)
	}
	for p, evs := range procs {
		for _, ev := range evs {
			fmt.Fprintf(bw,
				",\n{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%q,\"cat\":\"machine\","+
					"\"args\":{\"k\":%d,\"t\":%d,\"d\":%d,\"a\":%d,\"g\":%d,\"n\":%d}}",
				p, ts(ev.Time), ts(ev.Dur), ev.Kind.String(),
				ev.Kind, int64(ev.Time), int64(ev.Dur), ev.Addr, ev.Arg, ev.Node)
			switch ev.Kind {
			case EvHubQueue, EvMemQueue, EvRouterQueue, EvMetaQueue:
				fmt.Fprintf(bw, ",\n{\"ph\":\"C\",\"pid\":0,\"ts\":%s,\"name\":\"%s%d delay (ns)\",\"args\":{\"ns\":%d}}",
					ts(ev.Time), counterPrefix(ev.Kind), ev.Node, int64(ev.Dur)/int64(sim.Nanosecond))
			}
		}
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}

// randTime draws a virtual time that is often an edge case: either
// extreme, a small negative value (whose fraction carries the sign), a
// value short of zero padding, or anything at all.
func randTime(r *rand.Rand) sim.Time {
	switch r.Intn(6) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return -sim.Time(r.Int63n(int64(3 * sim.Microsecond)))
	case 3:
		return sim.Time(r.Int63n(1000))
	default:
		return sim.Time(r.Int63() - r.Int63())
	}
}

// randStreams draws 0-5 processors of up to 900 events each, so many
// streams cross ExportPerfetto's flush threshold.
func randStreams(r *rand.Rand) [][]Event {
	procs := make([][]Event, r.Intn(6))
	for p := range procs {
		for n := r.Intn(900); n > 0; n-- {
			ev := Event{Time: randTime(r), Dur: randTime(r)}
			if k := r.Intn(int(numKinds) + 4); k < int(numKinds) {
				ev.Kind = Kind(k)
			} else {
				ev.Kind = []Kind{numKinds, numKinds + 1, 200, math.MaxUint8}[k-int(numKinds)]
			}
			switch r.Intn(3) {
			case 0:
				ev.Addr, ev.Arg, ev.Node = math.MaxUint64, math.MinInt32, math.MinInt16
			case 1:
				ev.Addr, ev.Arg, ev.Node = 0, math.MaxInt32, math.MaxInt16
			default:
				ev.Addr, ev.Arg, ev.Node = r.Uint64(), int32(r.Uint32()), int16(r.Uint32())
			}
			procs[p] = append(procs[p], ev)
		}
	}
	return procs
}

// TestExportPerfettoMatchesReference checks ExportPerfetto against the fmt
// oracle on 256 seeded random streams, and that the streams really cover
// the edge cases they are drawn for.
func TestExportPerfettoMatchesReference(t *testing.T) {
	var negTime, negDur, badKind, bigWrite int
	queues := map[Kind]int{}
	for seed := int64(1); seed <= 256; seed++ {
		procs := randStreams(rand.New(rand.NewSource(seed)))
		var got, want bytes.Buffer
		if err := ExportPerfetto(&got, procs); err != nil {
			t.Fatal(err)
		}
		if err := referenceExportPerfetto(&want, procs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.Bytes(), want.Bytes()
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Fatalf("seed %d: output differs from the reference at byte %d:\ngot  %.120q\nwant %.120q",
				seed, i, g[i:], w[i:])
		}
		if got.Len() > perfettoFlush {
			bigWrite++
		}
		for _, evs := range procs {
			for _, ev := range evs {
				if ev.Time < 0 {
					negTime++
				}
				if ev.Dur < 0 {
					negDur++
				}
				if ev.Kind >= numKinds {
					badKind++
				}
				queues[ev.Kind]++
			}
		}
	}
	if negTime == 0 || negDur == 0 || badKind == 0 || bigWrite == 0 {
		t.Errorf("streams miss an edge case: %d negative times, %d negative durations, %d unknown kinds, %d outputs past the flush size",
			negTime, negDur, badKind, bigWrite)
	}
	for _, k := range []Kind{EvHubQueue, EvMemQueue, EvRouterQueue, EvMetaQueue} {
		if queues[k] == 0 {
			t.Errorf("streams never draw %s", k)
		}
	}
}

type failWriter struct{ n int }

var errFailWriter = errors.New("write failed")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n--; f.n < 0 {
		return 0, errFailWriter
	}
	return len(p), nil
}

// TestExportPerfettoReportsWriteError checks a failing writer's error
// reaches the caller, both mid-stream and on the final write.
func TestExportPerfettoReportsWriteError(t *testing.T) {
	procs := randStreams(rand.New(rand.NewSource(7)))
	var all bytes.Buffer
	if err := ExportPerfetto(&all, procs); err != nil {
		t.Fatal(err)
	}
	if all.Len() <= perfettoFlush {
		t.Fatalf("stream of %d bytes never flushes mid-export", all.Len())
	}
	for _, n := range []int{0, 1} {
		if err := ExportPerfetto(&failWriter{n: n}, procs); !errors.Is(err, errFailWriter) {
			t.Errorf("writer failing after %d writes: err = %v", n, err)
		}
	}
	if err := ExportPerfetto(&failWriter{n: 0}, nil); !errors.Is(err, errFailWriter) {
		t.Errorf("empty export to a failing writer: err = %v", err)
	}
}

// tracerWith builds a tracer whose processor p has recorded counts[p]
// events.
func tracerWith(o Options, counts ...int) *Tracer {
	tr := New(len(counts), o)
	for p, n := range counts {
		for i := 0; i < n; i++ {
			tr.rings[p].record(mkEvent(p<<20 + i))
		}
	}
	return tr
}

// TestWritePerfettoStreamsRings checks WritePerfetto, which encodes the
// rings in place, writes exactly ExportPerfetto(AllEvents()) for rings in
// every state: no events, partly filled, exactly full, wrapped (in lossy
// mode, so the resident window straddles the buffer's end) and spilled
// (in lossless mode).
func TestWritePerfettoStreamsRings(t *testing.T) {
	counts := []int{0, 5, 64, 100, 3000}
	for _, lossless := range []bool{false, true} {
		tr := tracerWith(Options{Enabled: true, RingSize: 64, Lossless: lossless}, counts...)
		var got, want bytes.Buffer
		if err := tr.WritePerfetto(&got); err != nil {
			t.Fatal(err)
		}
		if err := ExportPerfetto(&want, tr.AllEvents()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("lossless=%v: WritePerfetto wrote %d bytes that differ from ExportPerfetto's %d",
				lossless, got.Len(), want.Len())
		}
		if lossless && want.Len() <= perfettoFlush {
			t.Errorf("lossless export of %d bytes never flushes mid-stream", want.Len())
		}
	}
}

// allocs runs f twice and reports the heap allocations the second run
// made: their count and their bytes. Like testing.AllocsPerRun it pins
// GOMAXPROCS to 1, so no other goroutine allocates meanwhile.
func allocs(f func()) (count, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestWritePerfettoAllocsIndependentOfEvents guards the streaming export:
// it allocates the same, in count and in bytes, whether each processor
// holds 1K or 100K events.
func TestWritePerfettoAllocsIndependentOfEvents(t *testing.T) {
	export := func(n int) (count, bytes uint64) {
		tr := tracerWith(Options{Enabled: true, Lossless: true}, n, n)
		return allocs(func() {
			if err := tr.WritePerfetto(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	c1, b1 := export(1000)
	c2, b2 := export(100_000)
	if c2 != c1 || b2 != b1 {
		t.Errorf("export allocates %d times, %d bytes at 1K events per processor, %d times, %d bytes at 100K",
			c1, b1, c2, b2)
	}
}

// BenchmarkExportPerfetto encodes 32 processors of 2048 random events each.
func BenchmarkExportPerfetto(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	procs := make([][]Event, 32)
	for p := range procs {
		for i := 0; i < 2048; i++ {
			procs[p] = append(procs[p], Event{
				Time: sim.Time(r.Int63n(int64(sim.Second))),
				Dur:  sim.Time(r.Int63n(int64(sim.Microsecond))),
				Addr: r.Uint64() >> 40,
				Arg:  int32(r.Intn(64)),
				Node: int16(r.Intn(16)),
				Kind: Kind(r.Intn(int(numKinds))),
			})
		}
	}
	var n countWriter
	if err := ExportPerfetto(&n, procs); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ExportPerfetto(io.Discard, procs); err != nil {
			b.Fatal(err)
		}
	}
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
