package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"origin2000/internal/sim"
)

// sampleStreams builds a deterministic multi-processor event mix covering
// every kind, zero-duration events, out-of-order stamps (a wait recorded at
// its start can precede the previous event's stamp), and an empty stream.
func sampleStreams() [][]Event {
	procs := make([][]Event, 4)
	for i := 0; i < 64; i++ {
		p := i % 3 // proc 3 stays empty
		procs[p] = append(procs[p], mkEvent(i*17))
	}
	// Non-monotonic timestamps within one stream.
	procs[1] = append(procs[1],
		Event{Time: 5 * sim.Microsecond, Dur: sim.Microsecond, Addr: 1, Kind: EvSyncWait},
		Event{Time: 2 * sim.Microsecond, Dur: 0, Addr: 2, Node: 3, Kind: EvInvalRecv},
	)
	return procs
}

// eqStreams compares decoded streams to the original, treating nil and
// empty as equal (the decoder leaves untouched procs nil).
func eqStreams(a, b [][]Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestPerfettoRoundTripByteIdentical(t *testing.T) {
	procs := sampleStreams()
	var first bytes.Buffer
	if err := ExportPerfetto(&first, procs); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodePerfetto(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !eqStreams(procs, decoded) {
		t.Fatal("decoded event streams differ from the originals")
	}
	var second bytes.Buffer
	if err := ExportPerfetto(&second, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("decode -> re-encode is not byte-identical")
	}
}

func TestPerfettoIsValidJSONWithExpectedTracks(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportPerfetto(&buf, sampleStreams()); err != nil {
		t.Fatal(err)
	}
	var f map[string]any
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	evs, ok := f["traceEvents"].([]any)
	if !ok || len(evs) == 0 {
		t.Fatal("no traceEvents array")
	}
	// One process_name + one thread_name per proc.
	meta := 0
	for _, e := range evs {
		if e.(map[string]any)["ph"] == "M" {
			meta++
		}
	}
	if meta != 1+4 {
		t.Errorf("got %d metadata records, want 5", meta)
	}
	if !strings.Contains(buf.String(), "\"displayTimeUnit\":\"ns\"") {
		t.Error("missing displayTimeUnit header")
	}
}

func TestPerfettoQueueEventsEmitCounterTracks(t *testing.T) {
	procs := [][]Event{{
		{Time: sim.Microsecond, Dur: 100 * sim.Nanosecond, Node: 3, Kind: EvHubQueue},
	}}
	var buf bytes.Buffer
	if err := ExportPerfetto(&buf, procs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"hub3 delay (ns)\"") {
		t.Error("hub queue event did not emit its counter sample")
	}
	// The derived counter line must be skipped on decode.
	decoded, err := DecodePerfetto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded[0]) != 1 {
		t.Errorf("decoded %d events, want 1 (counter sample must not decode)", len(decoded[0]))
	}
}

func TestPerfettoDecodeRejectsForeignAndCorrupt(t *testing.T) {
	if _, err := DecodePerfetto(strings.NewReader(`{"traceEvents":[]}`)); err == nil {
		t.Error("decode accepted a trace without the tool header")
	}
	if _, err := DecodePerfetto(strings.NewReader(`not json`)); err == nil {
		t.Error("decode accepted invalid JSON")
	}
	bad := `{"otherData":{"tool":"origin2000-trace/1","procs":"1"},` +
		`"traceEvents":[{"ph":"X","tid":7,"args":{"k":0}}]}`
	if _, err := DecodePerfetto(strings.NewReader(bad)); err == nil {
		t.Error("decode accepted an out-of-range tid")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	procs := sampleStreams()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, procs); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !eqStreams(procs, decoded) {
		t.Fatal("binary round-trip lost or altered events")
	}
	// Deterministic: same input, same bytes.
	var again bytes.Buffer
	if err := EncodeBinary(&again, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("binary re-encode is not byte-identical")
	}
}

func TestBinaryDecodeRejectsCorrupt(t *testing.T) {
	if _, err := DecodeBinary(strings.NewReader("BADMAGIC")); err == nil {
		t.Error("decode accepted a bad magic")
	}
	if _, err := DecodeBinary(strings.NewReader("")); err == nil {
		t.Error("decode accepted an empty stream")
	}
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, sampleStreams()); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinary(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("decode accepted a truncated stream")
	}
}

func TestTracerAttributionTables(t *testing.T) {
	tr := New(2, Options{Enabled: true})
	tr.GrowPages(3)
	// Page 1 takes the remote traffic; page 2 only local misses.
	tr.Miss(0, 0, 500*sim.Nanosecond, 1<<7, 1, 3, 2, 4, EvMissRemoteDirty)
	tr.Miss(0, 1, 400*sim.Nanosecond, 1<<7, 1, 3, 0, 2, EvMissRemoteClean)
	tr.Miss(1, 2, 300*sim.Nanosecond, 2<<7, 2, 0, 0, 1, EvMissLocal)
	tr.InvalRecv(1, 3, 1<<7, 1, 0)
	tr.PageRemapped(1, 3, 0)

	pages := tr.TopPages(0)
	if len(pages) != 2 || pages[0].Key != 1 {
		t.Fatalf("page ranking wrong: %+v", pages)
	}
	top := pages[0]
	if top.RemoteDirty != 1 || top.RemoteClean != 1 || top.Interventions != 1 ||
		top.InvalsSent != 2 || top.InvalsRecv != 1 || top.Migrations != 1 ||
		top.MaxSharers != 4 || top.Stall != 900*sim.Nanosecond {
		t.Errorf("hot page stats wrong: %+v", top)
	}
	if share := tr.RemoteMissShare(1); share != 1.0 {
		t.Errorf("RemoteMissShare(1) = %v, want 1.0 (all remote misses on one page)", share)
	}

	tr.RegisterSync(100, "lock")
	tr.RegisterSync(200, "lock")
	tr.SyncAcquire(0, 100, 10, 0)                 // uncontended
	tr.SyncAcquire(0, 100, 20, 5*sim.Microsecond) // contended
	tr.SyncWait(1, 200, 30, sim.Microsecond)
	syncs := tr.TopSync(0)
	if len(syncs) != 2 || syncs[0].Label != "lock#0" {
		t.Fatalf("sync ranking wrong: %+v", syncs)
	}
	if syncs[0].Acquires != 2 || syncs[0].Waits != 1 || syncs[0].TotalWait != 5*sim.Microsecond {
		t.Errorf("lock#0 stats wrong: %+v", syncs[0])
	}

	if h := tr.LatencyHist(LatRemoteDirty); h.Count() != 1 {
		t.Errorf("remote-dirty latency count = %d", h.Count())
	}
	for _, rows := range [][][]string{
		tr.PageReport(5), tr.BlockReport(5), tr.SyncReport(5), tr.LatencyReport(),
	} {
		if len(rows) < 2 {
			t.Errorf("report has no data rows: %v", rows)
		}
	}
}

func TestRankHeatDeterministicTieBreak(t *testing.T) {
	in := []Heat{
		{Key: 5, HeatStat: HeatStat{RemoteClean: 2, Stall: 10}},
		{Key: 3, HeatStat: HeatStat{RemoteClean: 2, Stall: 10}},
		{Key: 9, HeatStat: HeatStat{RemoteClean: 7}},
	}
	got := rankHeat(in)
	want := []uint64{9, 3, 5}
	for i, h := range got {
		if h.Key != want[i] {
			t.Fatalf("rank %d = %#x, want %#x", i, h.Key, want[i])
		}
	}
	if !reflect.DeepEqual([]uint64{got[0].Key, got[1].Key, got[2].Key}, want) {
		t.Fatal("ordering unstable")
	}
}
