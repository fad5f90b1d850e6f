package check

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"origin2000/internal/cache"
	"origin2000/internal/directory"
	"origin2000/internal/pagearray"
	"origin2000/internal/sim"
)

// harness drives a Checker directly with a real directory and caches,
// playing both sides of the protocol the way internal/core does.
type harness struct {
	ck  *Checker
	dir *directory.Directory
	cas []*cache.Cache
}

func newHarness(nprocs int) *harness {
	d := directory.New()
	h := &harness{ck: New(nprocs, d), dir: d}
	for p := 0; p < nprocs; p++ {
		c := cache.New(cache.Config{SizeBytes: 4 << 10, BlockBytes: 128, Assoc: 2})
		h.cas = append(h.cas, c)
		h.ck.AttachCache(p, c)
	}
	return h
}

// read performs a faithful read miss or hit for proc on block.
func (h *harness) read(p int, block uint64, at sim.Time) {
	if h.cas[p].Lookup(block) != cache.Invalid {
		h.ck.OnHit(p, block, false, at)
		return
	}
	res := h.dir.Read(block, p)
	h.ck.OnDirRead(block, p, res, at)
	if res.Dirty {
		h.cas[res.Owner].Downgrade(block)
		h.ck.OnDowngrade(res.Owner, block, at)
	}
	h.cas[p].Fill(block, cache.Shared)
	h.ck.OnFill(p, block, false, at)
	h.ck.OnTxnEnd(p, block, at)
}

// write performs a faithful write miss/upgrade for proc on block.
func (h *harness) write(p int, block uint64, at sim.Time) {
	st := h.cas[p].Lookup(block)
	if st == cache.Modified {
		h.ck.OnHit(p, block, true, at)
		return
	}
	res := h.dir.Write(block, p)
	h.ck.OnDirWrite(block, p, res, at)
	if res.Dirty {
		h.cas[res.Owner].Invalidate(block)
		h.ck.OnInvalidate(res.Owner, block, at)
	}
	for _, s := range res.Invalidate {
		h.cas[s].Invalidate(block)
		h.ck.OnInvalidate(s, block, at)
	}
	if st == cache.Shared {
		h.cas[p].SetState(block, cache.Modified)
		h.ck.OnUpgrade(p, block, at)
	} else {
		h.cas[p].Fill(block, cache.Modified)
		h.ck.OnFill(p, block, true, at)
	}
	h.ck.OnTxnEnd(p, block, at)
}

func TestFaithfulProtocolHasNoViolations(t *testing.T) {
	h := newHarness(4)
	var at sim.Time
	for i := 0; i < 200; i++ {
		p := i % 4
		block := uint64(i % 7)
		at += 10 * sim.Nanosecond
		if i%3 == 0 {
			h.write(p, block, at)
		} else {
			h.read(p, block, at)
		}
	}
	if h.ck.Audit(); h.ck.Err() != nil {
		t.Fatalf("faithful protocol flagged: %v", h.ck.Err())
	}
	if h.ck.Events() == 0 {
		t.Fatal("no events recorded")
	}
}

func TestLostInvalidationIsCaughtAtDirWrite(t *testing.T) {
	h := newHarness(3)
	h.read(0, 1, 10)
	h.read(1, 1, 20)
	h.read(2, 1, 30)
	// p0 writes, but the directory "forgets" p2's invalidation.
	res := h.dir.Write(1, 0)
	filtered := res
	filtered.Invalidate = nil
	for _, s := range res.Invalidate {
		if s != 2 {
			filtered.Invalidate = append(filtered.Invalidate, s)
		}
	}
	h.ck.OnDirWrite(1, 0, filtered, 40)
	if h.ck.Err() == nil {
		t.Fatal("missing invalidation target not flagged")
	}
	if !strings.Contains(h.ck.Err().Error(), "invalidation list") {
		t.Fatalf("unexpected violation: %v", h.ck.Err())
	}
}

func TestUndeliveredInvalidationCaughtAtUpgrade(t *testing.T) {
	h := newHarness(2)
	h.read(0, 5, 10)
	h.read(1, 5, 20)
	// p0 gains ownership. The directory names p1 in the invalidation list
	// (so OnDirWrite is satisfied), but the invalidation is never
	// delivered: neither p1's cache nor the mirror drops the copy. The
	// SWMR scan at the upgrade catches the surviving reader immediately.
	res := h.dir.Write(5, 0)
	h.ck.OnDirWrite(5, 0, directory.WriteResult{Invalidate: res.Invalidate}, 30)
	h.cas[0].SetState(5, cache.Modified)
	h.ck.OnUpgrade(0, 5, 30)
	err := h.ck.Err()
	if err == nil {
		t.Fatal("undelivered invalidation not flagged")
	}
	if !strings.Contains(err.Error(), "SWMR") {
		t.Fatalf("unexpected violation: %v", err)
	}
}

// TestStaleReadHitIsCaught exercises the version backstop directly: a copy
// whose version lags the golden image trips the "lost invalidation?" report
// on its next use, even if every structural check somehow missed it.
func TestStaleReadHitIsCaught(t *testing.T) {
	h := newHarness(2)
	b := h.ck.mirror(5)
	b.ver = 3
	b.set(1, cache.Shared, 2)
	h.ck.OnHit(1, 5, false, 40)
	err := h.ck.Err()
	if err == nil {
		t.Fatal("stale read hit not flagged")
	}
	if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("unexpected violation: %v", err)
	}
}

func TestSWMRTwoWritersCaught(t *testing.T) {
	h := newHarness(2)
	h.write(0, 3, 10)
	// A buggy protocol grants p1 ownership without transferring it.
	h.cas[1].Fill(3, cache.Modified)
	h.ck.OnFill(1, 3, true, 20)
	err := h.ck.Err()
	if err == nil {
		t.Fatal("two simultaneous writers not flagged")
	}
	if !strings.Contains(err.Error(), "SWMR") {
		t.Fatalf("unexpected violation: %v", err)
	}
}

func TestViolationCarriesHistoryAndClocks(t *testing.T) {
	h := newHarness(2)
	h.read(0, 9, 100*sim.Nanosecond)
	h.write(1, 9, 200*sim.Nanosecond)
	h.cas[0].Fill(9, cache.Modified) // corrupt: p0 reappears as a writer
	h.ck.OnFill(0, 9, true, 300*sim.Nanosecond)
	vs := h.ck.Violations()
	if len(vs) == 0 {
		t.Fatal("no violation recorded")
	}
	v := vs[0]
	if v.Block != 9 {
		t.Errorf("block = %d, want 9", v.Block)
	}
	if len(v.History) == 0 {
		t.Error("violation has no history ring")
	}
	if len(v.Clocks) != 2 {
		t.Errorf("clocks = %v, want per-proc clocks", v.Clocks)
	}
	if v.Clocks[1] != 200*sim.Nanosecond {
		t.Errorf("p1 clock = %s, want 200ns", v.Clocks[1])
	}
	if !strings.Contains(v.Error(), "history") {
		t.Error("formatted violation lacks history section")
	}
}

func TestMaxViolationsBoundsRetention(t *testing.T) {
	h := newHarness(2)
	h.ck.MaxViolations = 3
	for i := 0; i < 10; i++ {
		// Every OnHit without a held mirror line is a violation.
		h.ck.OnHit(0, uint64(i), false, sim.Time(i))
	}
	if got := len(h.ck.Violations()); got != 3 {
		t.Fatalf("retained %d violations, want 3", got)
	}
	if err := h.ck.Err(); !strings.Contains(err.Error(), "10 violations") {
		t.Fatalf("Err should count dropped violations: %v", err)
	}
}

func TestAuditFlagsForeignDirectoryState(t *testing.T) {
	h := newHarness(2)
	h.read(0, 1, 10)
	// The directory grows state the event stream never saw.
	h.dir.Read(4242, 1)
	if n := h.ck.Audit(); n == 0 {
		t.Fatal("audit missed directory state with no recorded transactions")
	}
}

func TestHistoryRingKeepsLastEvents(t *testing.T) {
	r := &ring{}
	for i := 0; i < ringSize+5; i++ {
		r.record(Event{At: sim.Time(i)})
	}
	snap := r.snapshot()
	if len(snap) != ringSize {
		t.Fatalf("snapshot length %d, want %d", len(snap), ringSize)
	}
	if snap[0].At != 5 || snap[ringSize-1].At != sim.Time(ringSize+4) {
		t.Fatalf("ring window wrong: first %v last %v", snap[0].At, snap[ringSize-1].At)
	}
}

// TestHistoryPackRoundTrip checks a history entry packs every kind, the
// processor range's ends and the largest version into 16 bytes and back,
// that a 16-entry ring fits the allocator's 288-byte size class, and that
// recording a version beyond the packed field panics.
func TestHistoryPackRoundTrip(t *testing.T) {
	if n := unsafe.Sizeof(histEntry{}); n != 16 {
		t.Errorf("history entry is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(ring{}); n > 288 {
		t.Errorf("history ring is %d bytes, want at most 288", n)
	}
	for k := EvReadHit; k <= EvTxnEnd; k++ {
		for _, proc := range []int16{-1, 0, directory.MaxProcs - 1} {
			for _, ver := range []uint64{0, 1, maxHistVer} {
				e := Event{Kind: k, Proc: proc, At: sim.Time(-7 - int64(ver)), Ver: ver}
				if got := packEvent(e).event(); got != e {
					t.Errorf("round trip of %+v gave %+v", e, got)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("recording a version beyond the packed field did not panic")
		}
	}()
	(&ring{}).record(Event{Ver: maxHistVer + 1})
}

// TestSnapFrozenAtCapture: a snap keeps the state it captured while the
// checker records on, so an in-memory checkpoint's checker section does
// not drift to the end of the run. After the capture the captured block's
// history ring wraps, a new block is mirrored, the clocks advance and a
// violation is logged.
func TestSnapFrozenAtCapture(t *testing.T) {
	h := newHarness(2)
	h.read(0, 4, 10)
	h.write(1, 4, 20)
	snap := h.ck.Snap()
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ringSize; i++ {
		h.write(i%2, 4, sim.Time(30+i))
	}
	h.read(0, 5, 60)
	// p1 fills a copy the directory never granted.
	h.cas[1].Fill(9, cache.Shared)
	h.ck.OnFill(1, 9, false, 70)
	h.ck.OnTxnEnd(1, 9, 70)
	got, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.ck.Violations()) == 0 {
		t.Fatal("the ungranted fill logged no violation")
	}
	if now, _ := json.Marshal(h.ck.Snap()); string(now) == string(want) {
		t.Fatal("recording after the capture left the checker's state unchanged")
	}
	if string(got) != string(want) {
		t.Errorf("snap changed after capture:\nat capture %s\nnow        %s", want, got)
	}
}

// TestViolationsAscendByProcessor pins the report order: when one
// transaction breaks an invariant on several holders, the violations name
// them in ascending processor order on every run, so Err() and the
// MaxViolations cut are deterministic.
func TestViolationsAscendByProcessor(t *testing.T) {
	const block = 3
	for rep := 0; rep < 100; rep++ {
		h := newHarness(8)
		// p1..p7 fill copies the directory never granted, so the block
		// stays Unowned while seven caches hold it.
		for _, p := range []int{5, 2, 7, 1, 4, 3, 6} {
			h.cas[p].Fill(block, cache.Shared)
			h.ck.OnFill(p, block, false, sim.Time(p))
		}
		h.ck.OnTxnEnd(0, block, 10)
		vs := h.ck.Violations()
		if len(vs) != 7 {
			t.Fatalf("repeat %d: %d violations, want 7: %v", rep, len(vs), h.ck.Err())
		}
		for i, v := range vs {
			if want := fmt.Sprintf("p%d holds a copy of an Unowned block", i+1); v.Msg != want {
				t.Fatalf("repeat %d: violation %d is %q, want %q", rep, i, v.Msg, want)
			}
		}
		if err := h.ck.Err(); !strings.Contains(err.Error(), "first: check: block 0x3: p1 holds") {
			t.Fatalf("repeat %d: Err does not name p1 first: %v", rep, err)
		}
	}
}

// BenchmarkCheckerEvents drives a faithful 32-processor read/write mix
// through the checker: read hits, read misses after invalidations, write
// misses and upgrades with their fan-out, over 32 blocks on two pages.
func BenchmarkCheckerEvents(b *testing.B) {
	const procs = 32
	h := newHarness(procs)
	// Blocks i and BlocksPerPage+i share cache set i of the 2-way harness
	// caches, so the working set never evicts.
	var blocks []uint64
	for i := uint64(0); i < 16; i++ {
		blocks = append(blocks, i, pagearray.BlocksPerPage+i)
	}
	type op struct {
		p     int
		block uint64
		write bool
	}
	rng := rand.New(rand.NewSource(1))
	ops := make([]op, 4096)
	for i := range ops {
		ops[i] = op{rng.Intn(procs), blocks[rng.Intn(len(blocks))], rng.Intn(8) == 0}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var at sim.Time
	for i := 0; i < b.N; i++ {
		o := ops[i%len(ops)]
		at += 10 * sim.Nanosecond
		if o.write {
			h.write(o.p, o.block, at)
		} else {
			h.read(o.p, o.block, at)
		}
	}
	b.StopTimer()
	if err := h.ck.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(h.ck.Events())/float64(b.N), "events/op")
}
