package snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"origin2000/internal/cache"
	"origin2000/internal/check"
	"origin2000/internal/directory"
	"origin2000/internal/mempolicy"
	"origin2000/internal/metrics"
	"origin2000/internal/sharing"
	"origin2000/internal/sim"
	"origin2000/internal/trace"
)

// goldenSnapshot builds a hand-written snapshot exercising every section of
// the format — including the optional observer sections — with stable
// synthetic values. The golden fixture on disk is this snapshot's encoding;
// TestCompatGoldenFixture fails if a format change stops decoding it.
func goldenSnapshot() *Snapshot {
	sharers01 := directory.Sharers{}
	sharers01.Add(0)
	sharers01.Add(1)
	s := &Snapshot{
		Header: Header{
			Version:       Version,
			Procs:         2,
			Engine:        "parallel",
			Workers:       1,
			WorkersForced: true,
			QuiesSeq:      17,
			VirtualTime:   420 * sim.Microsecond,
			Spec: RunSpec{
				App: "FFT", Size: 4096, Variant: "opt", Prefetch: true,
				Div: 64, CacheDiv: 64, Steps: 2, Seed: 42,
			},
			Config: json.RawMessage(`{"Procs":2,"Engine":"parallel"}`),
		},
		Engine: sim.EngineSnap{
			Window:     4 * sim.Microsecond,
			WindowBase: 4 * sim.Microsecond,
			NumShards:  1,
			QuiesSeq:   17,
			CommitSeq:  3,
			Windows:    17,
			Procs: []sim.ProcSnap{
				{ID: 0, Now: 420 * sim.Microsecond, Shard: 0, Busy: 300 * sim.Microsecond,
					Memory: 90 * sim.Microsecond, Sync: 30 * sim.Microsecond,
					Counters: sim.Counters{Reads: 1000, Writes: 200, Hits: 1100, LocalMisses: 80}},
				{ID: 1, Now: 419 * sim.Microsecond, Shard: 0, Blocked: true,
					Busy: 280 * sim.Microsecond, Memory: 100 * sim.Microsecond,
					Counters: sim.Counters{Reads: 900, Writes: 180, RemoteClean: 40}},
			},
		},
		Procs: []ProcSnap{
			{
				Prefetch:  []PrefetchEntry{{Block: 7, Ready: 421 * sim.Microsecond}, {Block: 9, Ready: 422 * sim.Microsecond}},
				PrefetchQ: []uint64{7, 9},
				Phase:     "transpose",
				PhaseMark: Breakdown{Busy: 250 * sim.Microsecond, Memory: 80 * sim.Microsecond},
				PhaseAcc: []PhaseTotal{
					{Name: "fft-rows", Breakdown: Breakdown{Busy: 50 * sim.Microsecond, Memory: 10 * sim.Microsecond}},
				},
			},
			{Phase: "transpose", PhaseMark: Breakdown{Busy: 240 * sim.Microsecond}},
		},
		Caches: []cache.Snap{
			{Sets: 2, Assoc: 2, Tags: []uint64{7, 9, 0, 12},
				State: []cache.State{cache.Shared, cache.Modified, cache.Invalid, cache.Shared},
				Age:   []uint64{5, 6, 0, 7}, Clock: 8},
			{Sets: 2, Assoc: 2, Tags: []uint64{7, 0, 0, 0},
				State: []cache.State{cache.Shared, cache.Invalid, cache.Invalid, cache.Invalid},
				Age:   []uint64{3, 0, 0, 0}, Clock: 4},
		},
		Directories: []directory.Snap{
			{
				Blocks: []directory.BlockSnap{
					{Block: 7, State: directory.SharedState, Sharers: sharers01},
					{Block: 9, State: directory.Exclusive, Owner: 0},
					{Block: 12, State: directory.SharedState, Sharers: func() directory.Sharers {
						var s directory.Sharers
						s.Add(0)
						return s
					}()},
				},
				Shared: 2, Exclusive: 1,
			},
		},
		MemPolicy: mempolicy.TableSnap{
			Kind:  "first-touch",
			Gen:   3,
			Homes: []mempolicy.PageHome{{Page: 0, Home: 0}, {Page: 1, Home: 0}},
			Migrator: &mempolicy.MigratorSnap{
				Threshold:  64,
				Migrations: 1,
				Counts:     []mempolicy.PageCounts{{Page: 1, Counts: []int32{3, 0}}},
			},
		},
		Resources: ResourcesSnap{
			Hubs:    []sim.ResourceSnap{{Name: "hub0", FreeAt: 419 * sim.Microsecond, Busy: 50 * sim.Microsecond, Queued: 2 * sim.Microsecond, Acquires: 120}},
			Mems:    []sim.ResourceSnap{{Name: "mem0", FreeAt: 418 * sim.Microsecond, Busy: 30 * sim.Microsecond, Acquires: 80}},
			Routers: []sim.ResourceSnap{{Name: "router0", Acquires: 10}},
			Metas:   []sim.ResourceSnap{{Name: "meta0"}},
		},
		Memory: MemorySnap{NextAddr: 1 << 20, NodePages: []int{17}},
		Syncs: []SyncRecord{
			{Base: 4096, Kind: "barrier", State: json.RawMessage(`{"waiters":[1],"max_arr":419000000}`)},
			{Base: 8192, Kind: "lock", State: json.RawMessage(`{"held":false,"holder":-1}`)},
		},
		Checker: &check.Snap{
			Blocks: []check.BlockSnap{
				{
					Block: 7, DirState: directory.SharedState, Sharers: sharers01, Ver: 4,
					Held:  []check.LineSnap{{Proc: 0, State: cache.Shared, Ver: 4}, {Proc: 1, State: cache.Shared, Ver: 4}},
					HistN: 3,
					Hist: []check.Event{
						{Kind: 1, Proc: 0, At: 100 * sim.Microsecond, Ver: 3},
						{Kind: 2, Proc: 1, At: 200 * sim.Microsecond, Ver: 4},
						{Kind: 1, Proc: 1, At: 300 * sim.Microsecond, Ver: 4},
					},
				},
			},
			Clocks:        []sim.Time{420 * sim.Microsecond, 419 * sim.Microsecond},
			MaxViolations: 16,
			Events:        345,
		},
		Tracer: &trace.Snap{
			Rings: []trace.RingSnap{
				{N: 5, Resident: []trace.Event{{Time: 1 * sim.Microsecond, Dur: 338, Addr: 7}}},
				{N: 0},
			},
			Buckets: func() []trace.BucketSnap {
				b := trace.BucketSnap{
					Pages:  []trace.HeatEntry{{Key: 0, Stat: trace.HeatStat{LocalMisses: 12, RemoteClean: 3}}},
					Blocks: []trace.HeatEntry{{Key: 7, Stat: trace.HeatStat{InvalsSent: 2}}},
				}
				b.Lat[0] = trace.HistSnap{Buckets: []trace.HistBucket{{Idx: 3, Count: 9}}, Total: 9, Sum: 3 * sim.Microsecond, Max: 400, Min: 300}
				return []trace.BucketSnap{b}
			}(),
			Syncs:  []trace.SyncStat{{Obj: 4096, Label: "barrier#0", Waits: 7, TotalWait: 2 * sim.Microsecond, MaxWait: 800}},
			SyncN:  []trace.LabelCount{{Label: "barrier", Count: 1}, {Label: "lock", Count: 1}},
			Epochs: []sim.Time{100 * sim.Microsecond},
		},
		Metrics: &metrics.Snap{
			ProcNext: []sim.Time{500 * sim.Microsecond, 500 * sim.Microsecond},
			MachNext: 500 * sim.Microsecond,
			PerProc: [][]metrics.ProcSample{
				{{At: 100 * sim.Microsecond, Epoch: 1, Busy: 80 * sim.Microsecond}},
				nil,
			},
			Machine: []metrics.MachineSample{{At: 100 * sim.Microsecond, Epoch: 1, Busy: 150 * sim.Microsecond}},
			Epochs:  []sim.Time{100 * sim.Microsecond},
		},
	}
	return s
}

// TestStructuralRoundTrip is the structural tier's core property: every
// section encodes, decodes, and compares equal.
func TestStructuralRoundTrip(t *testing.T) {
	want := goldenSnapshot()
	data, err := want.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Validate after round-trip: %v", err)
	}
	// Per-section comparison for actionable failures.
	sections := map[string][2]any{
		"header":      {want.Header, got.Header},
		"engine":      {want.Engine, got.Engine},
		"procs":       {want.Procs, got.Procs},
		"caches":      {want.Caches, got.Caches},
		"directories": {want.Directories, got.Directories},
		"mempolicy":   {want.MemPolicy, got.MemPolicy},
		"resources":   {want.Resources, got.Resources},
		"memory":      {want.Memory, got.Memory},
		"syncs":       {want.Syncs, got.Syncs},
		"checker":     {want.Checker, got.Checker},
		"tracer":      {want.Tracer, got.Tracer},
		"metrics":     {want.Metrics, got.Metrics},
	}
	for name, pair := range sections {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("section %q did not survive the round-trip:\nwant %+v\ngot  %+v", name, pair[0], pair[1])
		}
	}
	// Determinism: the same state must always produce the same bytes (the
	// resume proof and the golden fixture both depend on it).
	again, err := want.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("Encode is not deterministic")
	}
}

// TestRoundTripWithoutObservers checks the optional sections are really
// optional.
func TestRoundTripWithoutObservers(t *testing.T) {
	want := goldenSnapshot()
	want.Checker, want.Tracer, want.Metrics = nil, nil, nil
	data, err := want.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Checker != nil || got.Tracer != nil || got.Metrics != nil {
		t.Fatal("observer sections materialized from nothing")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("observerless snapshot did not survive the round-trip")
	}
}

// TestCorruptedByteFuzz flips every byte of a valid encoding, one at a
// time; each corruption must be rejected with a FormatError, never a panic
// and never a silent success.
func TestCorruptedByteFuzz(t *testing.T) {
	data, err := goldenSnapshot().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for i := range data {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Decode panicked with byte %d flipped: %v", i, p)
				}
			}()
			mut := append([]byte(nil), data...)
			mut[i] ^= 0xFF
			s, err := Decode(mut)
			if err == nil {
				t.Fatalf("Decode accepted the file with byte %d flipped", i)
			}
			if s != nil {
				t.Fatalf("Decode returned a snapshot alongside the error for byte %d", i)
			}
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("byte %d: error is %T, want *FormatError: %v", i, err, err)
			}
		}()
	}
}

// TestCorruptionNamesSection checks the error names the section the damage
// is in, so a corrupt multi-gigabyte checkpoint is diagnosable.
func TestCorruptionNamesSection(t *testing.T) {
	data, err := goldenSnapshot().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// The bytes right after the section's name record are its length, CRC,
	// and payload; corrupt a payload byte (name + 8 header bytes + 1).
	idx := bytes.Index(data, []byte("caches"))
	if idx < 0 {
		t.Fatal("encoding does not contain the caches section name")
	}
	mut := append([]byte(nil), data...)
	mut[idx+len("caches")+9] ^= 0x01
	_, err = Decode(mut)
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("error is %T, want *FormatError: %v", err, err)
	}
	if fe.Section != "caches" {
		t.Fatalf("corruption in the caches payload reported against section %q: %v", fe.Section, err)
	}
}

// TestTruncatedFuzz decodes every proper prefix; each must be rejected with
// a FormatError, never a panic.
func TestTruncatedFuzz(t *testing.T) {
	data, err := goldenSnapshot().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for n := 0; n < len(data); n++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Decode panicked on %d-byte prefix: %v", n, p)
				}
			}()
			_, err := Decode(data[:n])
			if err == nil {
				t.Fatalf("Decode accepted a %d-byte prefix of a %d-byte file", n, len(data))
			}
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("prefix %d: error is %T, want *FormatError: %v", n, err, err)
			}
		}()
	}
}

func TestDecodeRejectsBadStreams(t *testing.T) {
	valid, err := goldenSnapshot().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte("NOTACKPT"), valid[8:]...),
		"trailing bytes": append(append([]byte(nil), valid...), 0xAA),
	}
	// A duplicated section: replay the header section record twice.
	{
		// magic(8) + version(4), then the header section follows first.
		rest := valid[12:]
		var hdrLen int
		{
			nameLen := int(uint32(rest[0]) | uint32(rest[1])<<8 | uint32(rest[2])<<16 | uint32(rest[3])<<24)
			payLen := int(uint32(rest[4+nameLen]) | uint32(rest[5+nameLen])<<8 | uint32(rest[6+nameLen])<<16 | uint32(rest[7+nameLen])<<24)
			hdrLen = 4 + nameLen + 4 + 4 + payLen
		}
		dup := append([]byte(nil), valid[:12]...)
		dup = append(dup, rest[:hdrLen]...)
		dup = append(dup, rest...)
		cases["duplicate section"] = dup
	}
	// A checkpoint of a run under the retired adaptive window policy: its
	// engine section carries the policy's state, which this build cannot
	// replay, so the decode must fail there instead of resuming under the
	// fixed window.
	const adaptiveEra = "engine section with adaptive-window state"
	{
		var b bytes.Buffer
		b.WriteString(magic)
		writeU32(&b, Version)
		for _, sec := range goldenSnapshot().sections() {
			if !sec.present {
				continue
			}
			payload, err := json.Marshal(sec.ptr)
			if err != nil {
				t.Fatal(err)
			}
			if sec.name == secEngine {
				payload = append([]byte(`{"adaptive":true,"window_max":64000000,"mark_chains":3,"mark_commits":2,"mark_runs":1,`), payload[1:]...)
			}
			writeSection(&b, sec.name, payload)
		}
		writeU32(&b, 0)
		cases[adaptiveEra] = b.Bytes()
	}
	for name, data := range cases {
		_, err := Decode(data)
		if err == nil {
			t.Errorf("%s: Decode accepted it", name)
			continue
		}
		var fe *FormatError
		if name == adaptiveEra && (!errors.As(err, &fe) || fe.Section != secEngine) {
			t.Errorf("%s: got %v, want a FormatError naming section %q", name, err, secEngine)
		}
	}
}

// TestDecodeRejectsUnknownFields pins strict decoding section by section: a
// field the section does not declare must fail Decode with a FormatError
// naming that section and the field, never be dropped. A checkpoint that
// carries state this build has no place for (a retired engine policy's,
// say) would otherwise resume without it.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	const unknown = "zz_not_a_field"
	for _, target := range goldenSnapshot().sections() {
		if !target.present {
			continue
		}
		t.Run(target.name, func(t *testing.T) {
			var b bytes.Buffer
			b.WriteString(magic)
			writeU32(&b, Version)
			for _, sec := range goldenSnapshot().sections() {
				if !sec.present {
					continue
				}
				payload, err := json.Marshal(sec.ptr)
				if err != nil {
					t.Fatal(err)
				}
				if sec.name == target.name {
					payload = withField(t, payload, unknown)
				}
				writeSection(&b, sec.name, payload)
			}
			writeU32(&b, 0)
			_, err := Decode(b.Bytes())
			var fe *FormatError
			if !errors.As(err, &fe) || fe.Section != target.name || !strings.Contains(fe.Msg, unknown) {
				t.Fatalf("got %v, want a FormatError naming section %q and field %q", err, target.name, unknown)
			}
		})
	}
}

// withField inserts key into the first JSON object of payload: the payload
// itself, or for a list section its first element.
func withField(t *testing.T, payload []byte, key string) []byte {
	t.Helper()
	i := bytes.IndexByte(payload, '{')
	if i < 0 {
		t.Fatalf("payload holds no JSON object: %s", payload)
	}
	field := fmt.Sprintf("%q:1", key)
	if payload[i+1] != '}' {
		field += ","
	}
	out := append([]byte(nil), payload[:i+1]...)
	out = append(out, field...)
	return append(out, payload[i+1:]...)
}

func TestValidateCatchesStructuralDamage(t *testing.T) {
	mutations := []struct {
		name    string
		section string
		mutate  func(*Snapshot)
	}{
		{"wrong version", secHeader, func(s *Snapshot) { s.Header.Version = 99 }},
		{"zero procs", secHeader, func(s *Snapshot) { s.Header.Procs = 0 }},
		{"more procs than a sharer set tracks", secHeader, func(s *Snapshot) { s.Header.Procs = directory.MaxProcs + 1 }},
		{"engine proc count", secEngine, func(s *Snapshot) { s.Engine.Procs = s.Engine.Procs[:1] }},
		{"engine proc ids", secEngine, func(s *Snapshot) { s.Engine.Procs[1].ID = 7 }},
		{"proc count", secProcs, func(s *Snapshot) { s.Procs = append(s.Procs, ProcSnap{}) }},
		{"unsorted prefetch", secProcs, func(s *Snapshot) {
			s.Procs[0].Prefetch[0], s.Procs[0].Prefetch[1] = s.Procs[0].Prefetch[1], s.Procs[0].Prefetch[0]
		}},
		{"cache count", secCaches, func(s *Snapshot) { s.Caches = s.Caches[:1] }},
		{"cache geometry", secCaches, func(s *Snapshot) { s.Caches[0].Tags = s.Caches[0].Tags[:2] }},
		{"unsorted directory", secDirectories, func(s *Snapshot) {
			b := s.Directories[0].Blocks
			b[0], b[1] = b[1], b[0]
		}},
		{"unsorted homes", secMemPolicy, func(s *Snapshot) {
			h := s.MemPolicy.Homes
			h[0], h[1] = h[1], h[0]
		}},
		{"node count", secMemory, func(s *Snapshot) { s.Memory.NodePages = nil }},
		{"checker clocks", secChecker, func(s *Snapshot) { s.Checker.Clocks = s.Checker.Clocks[:1] }},
		{"metrics series", secMetrics, func(s *Snapshot) { s.Metrics.PerProc = s.Metrics.PerProc[:1] }},
	}
	for _, mu := range mutations {
		s := goldenSnapshot()
		mu.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted it", mu.name)
			continue
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error is %T, want *FormatError: %v", mu.name, err, err)
			continue
		}
		if fe.Section != mu.section {
			t.Errorf("%s: reported against section %q, want %q (%v)", mu.name, fe.Section, mu.section, err)
		}
	}
	if err := goldenSnapshot().Validate(); err != nil {
		t.Fatalf("unmutated snapshot fails Validate: %v", err)
	}
}

// TestProveEqualAndDiff: the resume proof compares every section but the
// header, observers included, and Diff compares the header too.
func TestProveEqualAndDiff(t *testing.T) {
	a := goldenSnapshot()
	if sec, ok := ProveEqual(a, goldenSnapshot()); !ok {
		t.Fatalf("identical snapshots differ in %q", sec)
	}
	if sec, ok := Diff(a, goldenSnapshot()); !ok {
		t.Fatalf("identical snapshots Diff in %q", sec)
	}
	for _, c := range []struct {
		section string
		tamper  func(*Snapshot)
	}{
		{secCaches, func(s *Snapshot) { s.Caches[0].Clock++ }},
		{secChecker, func(s *Snapshot) { s.Checker.Events++ }},
		{secTracer, func(s *Snapshot) { s.Tracer.Rings[0].N++ }},
		{secMetrics, func(s *Snapshot) { s.Metrics.MachNext++ }},
		{secSharing, func(s *Snapshot) { s.Sharing = &sharing.Snap{Procs: 2, Nodes: 1, NodeRemote: []int64{0}} }},
		{secChecker, func(s *Snapshot) { s.Checker = nil }},
	} {
		b := goldenSnapshot()
		c.tamper(b)
		if sec, ok := ProveEqual(a, b); ok || sec != c.section {
			t.Errorf("ProveEqual reported (%q, %v), want (%s, false)", sec, ok, c.section)
		}
		if sec, ok := Diff(a, b); ok || sec != c.section {
			t.Errorf("Diff reported (%q, %v), want (%s, false)", sec, ok, c.section)
		}
	}
	// The header records how the run was driven, not what it computed.
	b := goldenSnapshot()
	b.Header.Workers, b.Header.Engine = 8, "serial"
	if sec, ok := ProveEqual(a, b); !ok {
		t.Errorf("ProveEqual looked at the header: section %q", sec)
	}
	if sec, ok := Diff(a, b); ok || sec != secHeader {
		t.Errorf("Diff reported (%q, %v), want (header, false)", sec, ok)
	}
	// Content decides, not representation: an empty slice where a decoded
	// snapshot holds nil marshals alike under omitempty, so it proves equal
	// though the values are not deeply equal.
	b = goldenSnapshot()
	b.Procs[1].PhaseAcc = []PhaseTotal{}
	if sec, ok := Diff(a, b); !ok {
		t.Errorf("a nil and an empty omitted slice Diff in %q", sec)
	}
}

// TestProveEqualCoversEverySection walks the section list the codec walks:
// changing any section but the header must fail ProveEqual and Diff naming
// that section, and changing the header must fail Diff alone. A section
// added to the format is a proof obligation from the start. A present
// section is cleared; an absent observer section is given an empty one.
func TestProveEqualCoversEverySection(t *testing.T) {
	live := goldenSnapshot()
	for i, sec := range live.sections() {
		t.Run(sec.name, func(t *testing.T) {
			recorded := goldenSnapshot()
			v := reflect.ValueOf(recorded.sections()[i].ptr).Elem()
			if v.IsZero() {
				v.Set(reflect.New(v.Type().Elem()))
			} else {
				v.SetZero()
			}
			wantProof := sec.name
			if sec.name == secHeader {
				wantProof = ""
			}
			if got, ok := ProveEqual(live, recorded); got != wantProof || ok != (wantProof == "") {
				t.Errorf("ProveEqual reported (%q, %v), want (%q, %v)", got, ok, wantProof, wantProof == "")
			}
			if got, ok := Diff(live, recorded); ok || got != sec.name {
				t.Errorf("Diff reported (%q, %v), want (%s, false)", got, ok, sec.name)
			}
		})
	}
}

func TestAuditState(t *testing.T) {
	s := goldenSnapshot()
	if v := AuditState(s); len(v) != 0 {
		t.Fatalf("healthy snapshot audits dirty: %v", v)
	}
	// A dropped invalidation: the directory cleared p1's sharer bit for
	// block 7 but p1 still holds the line.
	bad := goldenSnapshot()
	var only0 directory.Sharers
	only0.Add(0)
	bad.Directories[0].Blocks[0].Sharers = only0
	v := AuditState(bad)
	if len(v) == 0 {
		t.Fatal("stale sharer not detected")
	}
	found := false
	for _, x := range v {
		if x.Block == 7 && x.Proc == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations do not name block 7 / p1: %v", v)
	}
	// And the reverse: a sharer bit with no line behind it.
	bad2 := goldenSnapshot()
	bad2.Caches[1].State[0] = cache.Invalid
	if v := AuditState(bad2); len(v) == 0 {
		t.Fatal("orphan sharer bit not detected")
	}
}

const goldenPath = "testdata/originckpt_v1.bin"

// TestCompatGoldenFixture is the compatibility tier: the checked-in v1
// fixture must keep decoding to exactly the synthetic snapshot, so any
// format change forces a deliberate version bump (and a new fixture)
// instead of silently orphaning old checkpoints.
func TestCompatGoldenFixture(t *testing.T) {
	want := goldenSnapshot()
	data, err := os.ReadFile(goldenPath)
	if errors.Is(err, os.ErrNotExist) {
		enc, eerr := want.Encode()
		if eerr != nil {
			t.Fatalf("Encode: %v", eerr)
		}
		if merr := os.MkdirAll(filepath.Dir(goldenPath), 0o755); merr != nil {
			t.Fatalf("mkdir testdata: %v", merr)
		}
		if werr := os.WriteFile(goldenPath, enc, 0o644); werr != nil {
			t.Fatalf("write golden fixture: %v", werr)
		}
		t.Logf("wrote new golden fixture %s (%d bytes) — commit it", goldenPath, len(enc))
		data = enc
	} else if err != nil {
		t.Fatalf("read golden fixture: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("golden fixture no longer decodes: %v", err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("golden fixture no longer validates: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("golden fixture decodes to different content — format drift; bump the version and regenerate deliberately")
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.originckpt")
	want := goldenSnapshot()
	if err := want.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("file round-trip lost content")
	}
}
