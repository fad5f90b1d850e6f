package sharing

import (
	"encoding/json"
	"strings"
	"testing"

	"origin2000/internal/memclass"
	"origin2000/internal/pagearray"
)

// findBlock returns the report entry for one block.
func findBlock(t *testing.T, r *Report, block uint64) BlockReport {
	t.Helper()
	for _, b := range r.TopBlocks {
		if b.Block == block {
			return b
		}
	}
	t.Fatalf("block %#x not in report", block)
	return BlockReport{}
}

// TestPatternReadOnly pins that a block written once by its initializer
// and then only read classifies read-only, and that a never-written
// block does too.
func TestPatternReadOnly(t *testing.T) {
	o := New(4, 2)
	// Block 1: pure reads from everyone.
	for proc := 0; proc < 4; proc++ {
		o.OnMiss(proc, 1, 0, false, memclass.RemoteClean, 1, 0, 0)
		o.OnHit(proc, 1, 3, false)
	}
	// Block 2: proc 0 writes it cold (no other copies, fanout 0), then
	// everyone reads.
	o.OnMiss(0, 2, 0, true, memclass.Local, 0, 0, 0)
	for proc := 1; proc < 4; proc++ {
		o.OnMiss(proc, 2, 0, false, memclass.RemoteDirty, 0, 0, 0)
	}
	r := o.Report(0)
	if p := findBlock(t, r, 1).Pattern; p != "read-only" {
		t.Errorf("unwritten block pattern = %q, want read-only", p)
	}
	if p := findBlock(t, r, 2).Pattern; p != "read-only" {
		t.Errorf("init-then-read block pattern = %q, want read-only", p)
	}
}

// TestPatternPrivate pins that a block touched by one processor only —
// reads and writes — classifies private.
func TestPatternPrivate(t *testing.T) {
	o := New(4, 2)
	o.OnMiss(2, 7, 0, false, memclass.Local, 0, 0, 0)
	o.OnHit(2, 7, 1, true)
	o.OnHit(2, 7, 1, false)
	if p := findBlock(t, o.Report(0), 7).Pattern; p != "private" {
		t.Errorf("pattern = %q, want private", p)
	}
}

// TestPatternMigratory pins the lock-protected-counter signature:
// several processors read-modify-write the same word in turn, each
// ownership transfer invalidating exactly one previous holder. The
// block must classify migratory and its coherence misses must all be
// TRUE sharing (every miss fetches the previous owner's update).
func TestPatternMigratory(t *testing.T) {
	o := New(4, 2)
	const blk, word = 9, 5
	// Proc 0 initializes the counter.
	o.OnMiss(0, blk, word, true, memclass.Local, 0, 0, 0)
	prev := 0
	for turn := 1; turn < 8; turn++ {
		proc := turn % 4
		if proc == prev {
			proc = (proc + 1) % 4
		}
		// Read miss: 3-hop, downgrades the previous owner (who keeps a
		// Shared copy).
		o.OnMiss(proc, blk, word, false, memclass.RemoteDirty, 0, 0, 0)
		// Write upgrade: invalidates exactly the previous owner's copy.
		o.OnInvalidate(prev, blk)
		o.OnUpgrade(proc, blk, word, 1)
		prev = proc
	}
	b := findBlock(t, o.Report(0), blk)
	if b.Pattern != "migratory" {
		t.Errorf("pattern = %q, want migratory", b.Pattern)
	}
	if b.Coherence == 0 {
		t.Fatal("no coherence misses recorded")
	}
	if b.TrueSharing != b.Coherence || b.FalseSharing != 0 {
		t.Errorf("migratory counter split true=%d false=%d of %d coherence misses, want all true",
			b.TrueSharing, b.FalseSharing, b.Coherence)
	}
}

// TestPatternProducerConsumer pins the single-writer/many-reader flag:
// one producer repeatedly writes, invalidating its consumers.
func TestPatternProducerConsumer(t *testing.T) {
	o := New(4, 2)
	const blk = 11
	o.OnMiss(0, blk, 0, true, memclass.Local, 0, 0, 0)
	for round := 0; round < 3; round++ {
		for proc := 1; proc < 4; proc++ {
			o.OnMiss(proc, blk, 0, false, memclass.RemoteDirty, 0, 0, 0)
		}
		for proc := 1; proc < 4; proc++ {
			o.OnInvalidate(proc, blk)
		}
		o.OnUpgrade(0, blk, 0, 3)
	}
	b := findBlock(t, o.Report(0), blk)
	if b.Pattern != "producer-consumer" {
		t.Errorf("pattern = %q, want producer-consumer", b.Pattern)
	}
	if b.MaxFanout != 3 {
		t.Errorf("max fanout = %d, want 3", b.MaxFanout)
	}
}

// TestPatternWidelyShared pins the multi-writer broadcast signature:
// several writers, at least one write invalidating many copies.
func TestPatternWidelyShared(t *testing.T) {
	o := New(4, 2)
	const blk = 13
	for proc := 0; proc < 4; proc++ {
		o.OnMiss(proc, blk, 0, false, memclass.RemoteClean, 1, 0, 0)
	}
	for _, victim := range []int{1, 2, 3} {
		o.OnInvalidate(victim, blk)
	}
	o.OnUpgrade(0, blk, 0, 3)
	o.OnInvalidate(0, blk)
	o.OnMiss(1, blk, 0, true, memclass.RemoteDirty, 1, 0, 1)
	if p := findBlock(t, o.Report(0), blk).Pattern; p != "widely-shared" {
		t.Errorf("pattern = %q, want widely-shared", p)
	}
}

// TestFalseSharingSplit pins the word-footprint split on the canonical
// false-sharing microworkload: two processors ping-pong one block while
// writing DISJOINT words. Every coherence miss must settle false, the
// block must surface as a suspect with padding advice, and the run-wide
// verdict must flag false sharing.
func TestFalseSharingSplit(t *testing.T) {
	o := New(2, 2)
	const blk = 21
	// Cold start: proc 0 writes word 0, proc 1 writes word 8.
	o.OnMiss(0, blk, 0, true, memclass.Local, 0, 0, 0)
	o.OnInvalidate(0, blk)
	o.OnMiss(1, blk, 8, true, memclass.RemoteDirty, 0, 0, 1)
	// Ping-pong: each write miss invalidates the other's copy first
	// (the transaction's fan-out), then classifies — exactly the order
	// the core hot path produces.
	for round := 0; round < 10; round++ {
		o.OnInvalidate(1, blk)
		o.OnMiss(0, blk, 0, true, memclass.RemoteDirty, 0, 0, 1)
		o.OnInvalidate(0, blk)
		o.OnMiss(1, blk, 8, true, memclass.RemoteDirty, 0, 0, 1)
	}
	r := o.Report(8)
	b := findBlock(t, r, blk)
	if b.Coherence != 20 {
		t.Fatalf("coherence misses = %d, want 20", b.Coherence)
	}
	if b.TrueSharing != 0 || b.FalseSharing != 20 {
		t.Errorf("split true=%d false=%d, want 0/20", b.TrueSharing, b.FalseSharing)
	}
	if len(r.Suspects) == 0 || r.Suspects[0].Block != blk {
		t.Fatalf("block %#x not the top false-sharing suspect: %+v", uint64(blk), r.Suspects)
	}
	if !strings.Contains(r.Suspects[0].Advice, "pad") {
		t.Errorf("suspect advice %q does not suggest padding", r.Suspects[0].Advice)
	}
	if !strings.Contains(r.Verdict, "false-sharing-bound") {
		t.Errorf("verdict = %q, want false-sharing-bound", r.Verdict)
	}
}

// TestTrueSharingSplit pins the complementary case: the same ping-pong
// on the SAME word is pure true sharing.
func TestTrueSharingSplit(t *testing.T) {
	o := New(2, 2)
	const blk, word = 22, 4
	o.OnMiss(0, blk, word, true, memclass.Local, 0, 0, 0)
	for round := 0; round < 10; round++ {
		o.OnInvalidate(0, blk)
		o.OnMiss(1, blk, word, true, memclass.RemoteDirty, 0, 0, 1)
		o.OnInvalidate(1, blk)
		o.OnMiss(0, blk, word, true, memclass.RemoteDirty, 0, 0, 1)
	}
	b := findBlock(t, o.Report(0), blk)
	if b.FalseSharing != 0 || b.TrueSharing != b.Coherence {
		t.Errorf("split true=%d false=%d of %d, want all true", b.TrueSharing, b.FalseSharing, b.Coherence)
	}
}

// TestPendingSettlesTrueOnLaterTouch pins the deferred settlement rule:
// a coherence miss on an untouched word stays pending and flips to true
// sharing the moment the processor reads a remotely-written word.
func TestPendingSettlesTrueOnLaterTouch(t *testing.T) {
	o := New(2, 2)
	const blk = 23
	o.OnMiss(0, blk, 0, true, memclass.Local, 0, 0, 0) // proc 0 writes word 0
	o.OnInvalidate(0, blk)
	o.OnMiss(1, blk, 8, true, memclass.RemoteDirty, 0, 0, 1) // proc 1 writes word 8
	o.OnInvalidate(1, blk)
	// Proc 0 re-misses on word 0 (its own word): pending.
	o.OnMiss(0, blk, 0, false, memclass.RemoteDirty, 0, 0, 0)
	b := findBlock(t, o.Report(0), blk)
	if b.TrueSharing != 0 {
		t.Fatalf("premature true verdict: %+v", b)
	}
	// Now proc 0 reads word 8 — the remotely-written word: true.
	o.OnHit(0, blk, 8, false)
	b = findBlock(t, o.Report(0), blk)
	if b.TrueSharing != 1 {
		t.Errorf("true = %d after touching the dirty word, want 1", b.TrueSharing)
	}
}

// TestSplitExactness pins the accounting identity on a mixed workload:
// every demand miss lands in exactly one cause bucket and coherence
// misses split exactly into true + false + pending.
func TestSplitExactness(t *testing.T) {
	o := New(4, 2)
	for blk := uint64(0); blk < 32; blk++ {
		for proc := 0; proc < 4; proc++ {
			o.OnMiss(proc, blk, int(blk%WordsPerBlock), proc%2 == 0, memclass.RemoteClean, int(blk%2), blk>>7, 0)
		}
		o.OnInvalidate(1, blk)
		o.OnUpgrade(0, blk, int(blk%WordsPerBlock), 1)
		o.OnMiss(1, blk, 0, false, memclass.RemoteDirty, int(blk%2), blk>>7, 0)
		o.OnMiss(2, blk, 0, false, memclass.Local, int(blk%2), blk>>7, 0)
	}
	r := o.Report(0)
	demand := r.Misses[memclass.Local] + r.Misses[memclass.RemoteClean] + r.Misses[memclass.RemoteDirty]
	if got := r.Split.Cold + r.Split.Replacement + r.Split.Coherence; got != demand {
		t.Errorf("cause buckets sum to %d, demand misses = %d", got, demand)
	}
	if got := r.Split.TrueSharing + r.Split.FalseSharing + r.Split.Pending; got != r.Split.Coherence {
		t.Errorf("true+false+pending = %d, coherence = %d", got, r.Split.Coherence)
	}
}

// TestHotspotImbalance pins the home-node attribution: when one node
// serves every remote miss, the imbalance index is the node count and
// the verdict calls out the hotspot.
func TestHotspotImbalance(t *testing.T) {
	o := New(8, 4)
	for blk := uint64(0); blk < 16; blk++ {
		for proc := 0; proc < 8; proc++ {
			o.OnMiss(proc, blk, 0, false, memclass.RemoteClean, 2, blk/4, 0)
		}
	}
	r := o.Report(4)
	if r.Imbalance != 4 {
		t.Errorf("imbalance = %g, want 4 (one of four nodes serves all)", r.Imbalance)
	}
	if r.NodeRemote[2] != 16*8 {
		t.Errorf("node 2 served %d, want %d", r.NodeRemote[2], 16*8)
	}
	if !strings.Contains(r.Verdict, "home-hotspot") {
		t.Errorf("verdict = %q, want home-hotspot", r.Verdict)
	}
	if len(r.TopPages) != 4 || r.TopPages[0].Home != 2 || r.TopPages[0].Remote != 4*8 {
		t.Errorf("top pages malformed: %+v", r.TopPages)
	}
}

// TestSnapFrozenAtCapture: a snap keeps the state it captured while the
// classifier records on, so an in-memory checkpoint's sharing section
// does not drift to the end of the run. The capture holds a pending
// verdict that settles after it, and later misses touch the captured
// block, a new block and the node and page remote counts.
func TestSnapFrozenAtCapture(t *testing.T) {
	o := New(4, 2)
	o.OnMiss(0, 5, 0, true, memclass.Local, 0, 0, 0)
	o.OnInvalidate(0, 5)
	o.OnMiss(1, 5, 8, true, memclass.RemoteDirty, 0, 0, 1)
	o.OnInvalidate(1, 5)
	o.OnMiss(0, 5, 0, false, memclass.RemoteDirty, 0, 0, 0) // pending
	snap := o.Snap()
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	o.OnHit(0, 5, 8, false) // settles the pending verdict
	o.OnMiss(2, 5, 3, false, memclass.RemoteClean, 0, 0, 0)
	o.OnMiss(3, 6, 1, true, memclass.RemoteClean, 1, 0, 0)
	o.OnUpgrade(3, 6, 2, 0)
	if now, _ := json.Marshal(o.Snap()); string(now) == string(want) {
		t.Fatal("recording after the capture left the classifier's state unchanged")
	}
	got, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("snap changed after capture:\nat capture %s\nnow        %s", want, got)
	}
}

// TestWideMachineClassifies runs the classifier on a 128-processor
// machine, where processors 64..127 keep their presence bits in the page
// head's wide masks: their reads, writes and invalidations must derive
// the patterns and the true/false split that processors below 64 get,
// including a verdict left pending and settled later.
func TestWideMachineClassifies(t *testing.T) {
	o := New(128, 64)
	// Producer-consumer on page 0: processor 100 writes word 0, then
	// three rounds of 63 high readers re-reading it after its upgrade
	// invalidates them all. Every reader's re-miss needs the new word.
	const pc = 1
	o.OnMiss(100, pc, 0, true, memclass.RemoteClean, 50, 0, 0)
	for round := 0; round < 3; round++ {
		for proc := 64; proc < 128; proc++ {
			if proc != 100 {
				o.OnMiss(proc, pc, 0, false, memclass.RemoteDirty, 50, 0, 0)
			}
		}
		for proc := 64; proc < 128; proc++ {
			if proc != 100 {
				o.OnInvalidate(proc, pc)
			}
		}
		o.OnUpgrade(100, pc, 0, 63)
	}
	// False sharing on page 1: processors 65 and 126 ping-pong one
	// block writing disjoint words (126's first miss is cold).
	fs := pagearray.BlockOf(1, 5)
	o.OnMiss(65, fs, 0, true, memclass.Local, 0, 1, 0)
	for round := 0; round < 10; round++ {
		o.OnInvalidate(65, fs)
		o.OnMiss(126, fs, 8, true, memclass.RemoteDirty, 0, 1, 1)
		o.OnInvalidate(126, fs)
		o.OnMiss(65, fs, 0, true, memclass.RemoteDirty, 0, 1, 1)
	}
	// True sharing on page 2 between a low and a high processor (120's
	// first miss is cold).
	ts := pagearray.BlockOf(2, 9)
	o.OnMiss(3, ts, 4, true, memclass.Local, 1, 2, 0)
	for round := 0; round < 5; round++ {
		o.OnInvalidate(3, ts)
		o.OnMiss(120, ts, 4, true, memclass.RemoteDirty, 1, 2, 1)
		o.OnInvalidate(120, ts)
		o.OnMiss(3, ts, 4, true, memclass.RemoteDirty, 1, 2, 1)
	}
	// Widely shared on page 2: four high readers, two writers, one
	// write invalidating three copies.
	ws := pagearray.BlockOf(2, 10)
	for proc := 64; proc < 68; proc++ {
		o.OnMiss(proc, ws, 0, false, memclass.RemoteClean, 1, 2, 0)
	}
	for _, victim := range []int{65, 66, 67} {
		o.OnInvalidate(victim, ws)
	}
	o.OnUpgrade(64, ws, 0, 3)
	o.OnInvalidate(64, ws)
	o.OnMiss(65, ws, 0, true, memclass.RemoteDirty, 1, 2, 1)
	// A verdict left pending: processor 70 re-misses on its own word
	// after 71 wrote word 8.
	pend := pagearray.BlockOf(2, 11)
	o.OnMiss(70, pend, 0, true, memclass.Local, 1, 2, 0)
	o.OnInvalidate(70, pend)
	o.OnMiss(71, pend, 8, true, memclass.RemoteDirty, 1, 2, 1)
	o.OnInvalidate(71, pend)
	o.OnMiss(70, pend, 0, false, memclass.RemoteDirty, 1, 2, 0)

	r := o.Report(0)
	for _, c := range []struct {
		block                            uint64
		pattern                          string
		readers, writers                 int
		coherence, trueShare, falseShare int64
	}{
		{pc, "producer-consumer", 63, 1, 126, 126, 0},
		{fs, "migratory", 0, 2, 19, 0, 19},
		{ts, "migratory", 0, 2, 9, 9, 0},
		{ws, "widely-shared", 4, 2, 1, 1, 0},
		{pend, "migratory", 1, 2, 1, 0, 1},
	} {
		b := findBlock(t, r, c.block)
		if b.Pattern != c.pattern || b.Readers != c.readers || b.Writers != c.writers {
			t.Errorf("block %#x: %s with %d/%d rd/wr procs, want %s with %d/%d",
				c.block, b.Pattern, b.Readers, b.Writers, c.pattern, c.readers, c.writers)
		}
		if b.Coherence != c.coherence || b.TrueSharing != c.trueShare || b.FalseSharing != c.falseShare {
			t.Errorf("block %#x: coherence %d split true=%d false=%d, want %d split %d/%d",
				c.block, b.Coherence, b.TrueSharing, b.FalseSharing, c.coherence, c.trueShare, c.falseShare)
		}
	}
	if b := findBlock(t, r, pc); b.MaxFanout != 63 {
		t.Errorf("producer-consumer max fanout = %d, want 63", b.MaxFanout)
	}

	o.OnHit(70, pend, 8, false) // touches 71's word: settles true
	if b := findBlock(t, o.Report(0), pend); b.TrueSharing != 1 || b.FalseSharing != 0 {
		t.Errorf("pending verdict settled true=%d false=%d, want 1/0", b.TrueSharing, b.FalseSharing)
	}
}
