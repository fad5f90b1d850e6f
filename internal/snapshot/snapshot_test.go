package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
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

// goldenSection is one section value of the synthetic snapshot.
type goldenSection struct {
	name string
	v    any
}

// goldenSections builds hand-written section values exercising every
// section the golden fixture holds — every simulation section and the
// checker, tracer and sampler sections — with stable synthetic values.
// The fixture on disk is their originckpt/v1 encoding, written before
// version 2; TestCompatGoldenFixture checks that it still digests to them.
func goldenSections() []goldenSection {
	sharers01 := directory.Sharers{}
	sharers01.Add(0)
	sharers01.Add(1)
	var sharers0 directory.Sharers
	sharers0.Add(0)
	tracerBucket := trace.BucketSnap{
		Pages:  []trace.HeatEntry{{Key: 0, Stat: trace.HeatStat{LocalMisses: 12, RemoteClean: 3}}},
		Blocks: []trace.HeatEntry{{Key: 7, Stat: trace.HeatStat{InvalsSent: 2}}},
	}
	tracerBucket.Lat[0] = trace.HistSnap{Buckets: []trace.HistBucket{{Idx: 3, Count: 9}}, Total: 9, Sum: 3 * sim.Microsecond, Max: 400, Min: 300}
	return []goldenSection{
		{"engine", sim.EngineSnap{
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
		}},
		{"procs", []ProcSnap{
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
		}},
		{"caches", []cache.Snap{
			{Sets: 2, Assoc: 2, Tags: []uint64{7, 9, 0, 12},
				State: []cache.State{cache.Shared, cache.Modified, cache.Invalid, cache.Shared},
				Age:   []uint64{5, 6, 0, 7}, Clock: 8},
			{Sets: 2, Assoc: 2, Tags: []uint64{7, 0, 0, 0},
				State: []cache.State{cache.Shared, cache.Invalid, cache.Invalid, cache.Invalid},
				Age:   []uint64{3, 0, 0, 0}, Clock: 4},
		}},
		{"directories", []directory.Snap{{
			Blocks: []directory.BlockSnap{
				{Block: 7, State: directory.SharedState, Sharers: sharers01},
				{Block: 9, State: directory.Exclusive, Owner: 0},
				{Block: 12, State: directory.SharedState, Sharers: sharers0},
			},
			Shared: 2, Exclusive: 1,
		}}},
		{"mempolicy", mempolicy.TableSnap{
			Kind:  "first-touch",
			Gen:   3,
			Homes: []mempolicy.PageHome{{Page: 0, Home: 0}, {Page: 1, Home: 0}},
			Migrator: &mempolicy.MigratorSnap{
				Threshold:  64,
				Migrations: 1,
				Counts:     []mempolicy.PageCounts{{Page: 1, Counts: []int32{3, 0}}},
			},
		}},
		{"resources", ResourcesSnap{
			Hubs:    []sim.ResourceSnap{{Name: "hub0", FreeAt: 419 * sim.Microsecond, Busy: 50 * sim.Microsecond, Queued: 2 * sim.Microsecond, Acquires: 120}},
			Mems:    []sim.ResourceSnap{{Name: "mem0", FreeAt: 418 * sim.Microsecond, Busy: 30 * sim.Microsecond, Acquires: 80}},
			Routers: []sim.ResourceSnap{{Name: "router0", Acquires: 10}},
			Metas:   []sim.ResourceSnap{{Name: "meta0"}},
		}},
		{"memory", MemorySnap{NextAddr: 1 << 20, NodePages: []int{17}}},
		{"syncs", []SyncRecord{
			{Base: 4096, Kind: "barrier", State: json.RawMessage(`{"waiters":[1],"max_arr":419000000}`)},
			{Base: 8192, Kind: "lock", State: json.RawMessage(`{"held":false,"holder":-1}`)},
		}},
		{"checker", check.Snap{
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
		}},
		{"tracer", trace.Snap{
			Rings: []trace.RingSnap{
				{N: 5, Resident: []trace.Event{{Time: 1 * sim.Microsecond, Dur: 338, Addr: 7}}},
				{N: 0},
			},
			Buckets: []trace.BucketSnap{tracerBucket},
			Syncs:   []trace.SyncStat{{Obj: 4096, Label: "barrier#0", Waits: 7, TotalWait: 2 * sim.Microsecond, MaxWait: 800}},
			SyncN:   []trace.LabelCount{{Label: "barrier", Count: 1}, {Label: "lock", Count: 1}},
			Epochs:  []sim.Time{100 * sim.Microsecond},
		}},
		{"metrics", metrics.Snap{
			ProcNext: []sim.Time{500 * sim.Microsecond, 500 * sim.Microsecond},
			MachNext: 500 * sim.Microsecond,
			PerProc: [][]metrics.ProcSample{
				{{At: 100 * sim.Microsecond, Epoch: 1, Busy: 80 * sim.Microsecond}},
				nil,
			},
			Machine: []metrics.MachineSample{{At: 100 * sim.Microsecond, Epoch: 1, Busy: 150 * sim.Microsecond}},
			Epochs:  []sim.Time{100 * sim.Microsecond},
		}},
	}
}

// goldenSnapshot is the golden sections digested under a version 2
// header.
func goldenSnapshot() *Snapshot {
	s := &Snapshot{Header: Header{
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
	}}
	for _, sec := range goldenSections() {
		if err := s.Add(sec.name, sec.v); err != nil {
			panic(err)
		}
	}
	return s
}

// golden returns a fresh copy of the golden value of section name.
func golden(name string) any {
	for _, sec := range goldenSections() {
		if sec.name == name {
			return sec.v
		}
	}
	panic("no golden section " + name)
}

// clone copies a snapshot deeply enough that changing its digests leaves
// the original alone.
func clone(s *Snapshot) *Snapshot {
	c := *s
	c.Digests = maps.Clone(s.Digests)
	return &c
}

// TestStructuralRoundTrip is the structural tier's core property: a
// snapshot encodes to the header and one 32-byte digest per section,
// decodes, validates and compares equal, and encodes deterministically.
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
	if sec, ok := Diff(want, got); !ok {
		t.Errorf("section %q did not survive the round-trip", sec)
	}
	// magic, version, header record, one digest record per section, end
	// marker.
	hdr, err := json.Marshal(&want.Header)
	if err != nil {
		t.Fatal(err)
	}
	size := 8 + 4 + (4 + len("header") + 8 + len(hdr)) + 4
	for name := range want.Digests {
		size += 4 + len(name) + 8 + sha256.Size
	}
	if len(data) != size {
		t.Errorf("encoding is %d bytes, want %d: the header and one digest per section", len(data), size)
	}
	again, err := want.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("Encode is not deterministic")
	}
}

// TestRoundTripWithoutObservers checks the observer sections are really
// optional.
func TestRoundTripWithoutObservers(t *testing.T) {
	want := clone(goldenSnapshot())
	for _, name := range observerSections {
		delete(want.Digests, name)
	}
	data, err := want.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for _, name := range observerSections {
		if got.Has(name) {
			t.Errorf("observer section %q materialized from nothing", name)
		}
	}
	if sec, ok := Diff(want, got); !ok {
		t.Fatalf("observerless snapshot did not survive the round-trip: section %q", sec)
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
// is in, so a corrupt checkpoint is diagnosable.
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

// record is one framed section: its name and raw payload.
type record struct {
	name    string
	payload []byte
}

// frame builds an originckpt container of the given version from records,
// in order.
func frame(version uint32, recs ...record) []byte {
	var b bytes.Buffer
	b.WriteString(magic)
	writeU32(&b, version)
	for _, r := range recs {
		writeSection(&b, r.name, r.payload)
	}
	writeU32(&b, 0)
	return b.Bytes()
}

// v2Records returns the golden snapshot's v2 records, header first.
func v2Records(t *testing.T) []record {
	t.Helper()
	s := goldenSnapshot()
	hdr, err := json.Marshal(&s.Header)
	if err != nil {
		t.Fatal(err)
	}
	out := []record{{secHeader, hdr}}
	for _, name := range sectionNames[1:] {
		if d, ok := s.Digests[name]; ok {
			out = append(out, record{name, d[:]})
		}
	}
	return out
}

// TestDecodeRejectsBadStreams: each malformation is a FormatError naming
// the section it is in.
func TestDecodeRejectsBadStreams(t *testing.T) {
	valid, err := goldenSnapshot().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	recs := v2Records(t)
	plus := func(extra ...record) []record { return append(slices.Clone(recs), extra...) }
	without := func(name string) []record {
		return slices.DeleteFunc(slices.Clone(recs), func(r record) bool { return r.name == name })
	}
	cases := []struct {
		name, section string
		data          []byte
	}{
		{"empty", "", nil},
		{"bad magic", "", append([]byte("NOTACKPT"), valid[8:]...)},
		{"trailing bytes", "", append(append([]byte(nil), valid...), 0xAA)},
		{"version 3", "", frame(3, recs...)},
		{"duplicate section", "caches", frame(Version, plus(recs[3])...)},
		{"unknown section", "zz_section", frame(Version, plus(record{"zz_section", make([]byte, sha256.Size)})...)},
		{"short digest", "engine", frame(Version, append(without("engine"), record{"engine", make([]byte, sha256.Size-1)})...)},
		{"missing header", "header", frame(Version, recs[1:]...)},
		{"missing simulation section", "syncs", frame(Version, without("syncs")...)},
	}
	for _, c := range cases {
		_, err := Decode(c.data)
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: got %v, want a FormatError", c.name, err)
			continue
		}
		if fe.Section != c.section {
			t.Errorf("%s: got %v, want a FormatError naming section %q", c.name, err, c.section)
		}
	}
}

// TestDecodeRejectsUnknownFields pins, section by section, that a field
// the section does not declare is never dropped. In the header, which a
// checkpoint keeps whole, it fails Decode with a FormatError naming the
// header and the field. In any other section of a v1 checkpoint it is part
// of the digested payload, so the checkpoint decodes but fails the resume
// proof in that section. A checkpoint that carries state this build has no
// place for (a retired engine policy's, say) would otherwise resume
// without it.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	const unknown = "zz_not_a_field"
	want := goldenSnapshot()
	t.Run(secHeader, func(t *testing.T) {
		recs := v2Records(t)
		recs[0].payload = withField(t, recs[0].payload, unknown)
		_, err := Decode(frame(Version, recs...))
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Section != secHeader || !strings.Contains(fe.Msg, unknown) {
			t.Fatalf("got %v, want a FormatError naming section %q and field %q", err, secHeader, unknown)
		}
	})
	hdr, err := json.Marshal(&want.Header)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range goldenSections() {
		t.Run(target.name, func(t *testing.T) {
			recs := []record{{secHeader, hdr}}
			for _, sec := range goldenSections() {
				payload, err := json.Marshal(sec.v)
				if err != nil {
					t.Fatal(err)
				}
				if sec.name == target.name {
					payload = withField(t, payload, unknown)
				}
				recs = append(recs, record{sec.name, payload})
			}
			got, err := Decode(frame(1, recs...))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if sec, ok := ProveEqual(want, got); ok || sec != target.name {
				t.Errorf("ProveEqual reported (%q, %v), want (%s, false)", sec, ok, target.name)
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

// TestV1PayloadsAreDigestedOnRead: a v1 container's non-header payloads
// are the sections' canonical JSON, and Decode digests them as it reads.
// A checkpoint of a run under the retired adaptive window policy carries
// that policy's state in its engine section, so it decodes but fails the
// proof in that section instead of replaying under the fixed window.
func TestV1PayloadsAreDigestedOnRead(t *testing.T) {
	want := goldenSnapshot()
	hdr, err := json.Marshal(&want.Header)
	if err != nil {
		t.Fatal(err)
	}
	recs := []record{{secHeader, hdr}}
	adaptive := []record{{secHeader, hdr}}
	for _, sec := range goldenSections() {
		payload, err := json.Marshal(sec.v)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, record{sec.name, payload})
		if sec.name == "engine" {
			payload = append([]byte(`{"adaptive":true,"window_max":64000000,"mark_chains":3,"mark_commits":2,"mark_runs":1,`), payload[1:]...)
		}
		adaptive = append(adaptive, record{sec.name, payload})
	}
	got, err := Decode(frame(1, recs...))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if sec, ok := Diff(want, got); !ok {
		t.Errorf("v1 framing digests differently from Add in section %q", sec)
	}
	old, err := Decode(frame(1, adaptive...))
	if err != nil {
		t.Fatalf("Decode of the adaptive-era checkpoint: %v", err)
	}
	if sec, ok := ProveEqual(want, old); ok || sec != "engine" {
		t.Errorf("adaptive-era checkpoint proved (%q, %v), want (engine, false)", sec, ok)
	}
}

func TestValidateCatchesStructuralDamage(t *testing.T) {
	mutations := []struct {
		name    string
		section string
		mutate  func(*Snapshot)
	}{
		{"wrong version", secHeader, func(s *Snapshot) { s.Header.Version = 99 }},
		{"zero procs", secHeader, func(s *Snapshot) { s.Header.Procs = 0 }},
		{"zero quiescent point", secHeader, func(s *Snapshot) { s.Header.QuiesSeq = 0 }},
		{"missing simulation section", "memory", func(s *Snapshot) { delete(s.Digests, "memory") }},
	}
	for _, mu := range mutations {
		s := clone(goldenSnapshot())
		mu.mutate(s)
		err := s.Validate()
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: Validate returned %v, want a FormatError", mu.name, err)
			continue
		}
		if fe.Section != mu.section {
			t.Errorf("%s: reported against section %q, want %q (%v)", mu.name, fe.Section, mu.section, err)
		}
	}
	if err := goldenSnapshot().Validate(); err != nil {
		t.Fatalf("unmutated snapshot fails Validate: %v", err)
	}
	if err := (&Snapshot{}).Add(secHeader, 1); err == nil {
		t.Error("Add digested the header, which a checkpoint keeps whole")
	}
}

// TestProveEqualAndDiff: the resume proof compares the digest of every
// section but the header, observers included, and Diff compares the
// header too. A digest follows a section's content: one changed field
// changes it, and values that marshal alike digest alike.
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
		tamper  func(*Snapshot) error
	}{
		{"caches", func(s *Snapshot) error {
			c := golden("caches").([]cache.Snap)
			c[0].Clock++
			return s.Add("caches", c)
		}},
		{"checker", func(s *Snapshot) error {
			c := golden("checker").(check.Snap)
			c.Events++
			return s.Add("checker", c)
		}},
		{"tracer", func(s *Snapshot) error {
			tr := golden("tracer").(trace.Snap)
			tr.Rings[0].N++
			return s.Add("tracer", tr)
		}},
		{"metrics", func(s *Snapshot) error {
			m := golden("metrics").(metrics.Snap)
			m.MachNext++
			return s.Add("metrics", m)
		}},
		{"sharing", func(s *Snapshot) error {
			return s.Add("sharing", sharing.Snap{Procs: 2, Nodes: 1, NodeRemote: []int64{0}})
		}},
		{"checker", func(s *Snapshot) error { delete(s.Digests, "checker"); return nil }},
	} {
		b := goldenSnapshot()
		if err := c.tamper(b); err != nil {
			t.Fatal(err)
		}
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
	// snapshot holds nil marshals alike under omitempty, so it digests
	// alike though the values are not deeply equal.
	b = goldenSnapshot()
	procs := golden("procs").([]ProcSnap)
	procs[1].PhaseAcc = []PhaseTotal{}
	if err := b.Add("procs", procs); err != nil {
		t.Fatal(err)
	}
	if sec, ok := Diff(a, b); !ok {
		t.Errorf("a nil and an empty omitted slice Diff in %q", sec)
	}
}

// TestProveEqualCoversEverySection walks the section list the codec walks:
// changing any section's digest must fail ProveEqual and Diff naming that
// section, and so must dropping a present section or adding an absent
// one; changing the header must fail Diff alone. A section added to the
// format is a proof obligation from the start.
func TestProveEqualCoversEverySection(t *testing.T) {
	live := goldenSnapshot()
	live.Digests["sharing"] = sha256.Sum256([]byte("{}")) // the fixture predates the classifier
	for _, name := range sectionNames {
		t.Run(name, func(t *testing.T) {
			if name == secHeader {
				recorded := clone(live)
				recorded.Header = Header{}
				if got, ok := ProveEqual(live, recorded); !ok {
					t.Errorf("ProveEqual looked at the header: section %q", got)
				}
				if got, ok := Diff(live, recorded); ok || got != secHeader {
					t.Errorf("Diff reported (%q, %v), want (header, false)", got, ok)
				}
				return
			}
			for what, tamper := range map[string]func(*Snapshot){
				"altered": func(s *Snapshot) { d := s.Digests[name]; d[0] ^= 1; s.Digests[name] = d },
				"dropped": func(s *Snapshot) { delete(s.Digests, name) },
			} {
				recorded := clone(live)
				tamper(recorded)
				if got, ok := ProveEqual(live, recorded); ok || got != name {
					t.Errorf("%s: ProveEqual reported (%q, %v), want (%s, false)", what, got, ok, name)
				}
				if got, ok := Diff(recorded, live); ok || got != name {
					t.Errorf("%s: Diff reported (%q, %v), want (%s, false)", what, got, ok, name)
				}
			}
		})
	}
}

const goldenPath = "testdata/originckpt_v1.bin"

// TestCompatGoldenFixture is the compatibility tier: the checked-in v1
// fixture, written before version 2, must keep decoding to the golden
// header and to the digests of the golden sections, so a checkpoint a
// version 1 build wrote still proves against a live replay.
func TestCompatGoldenFixture(t *testing.T) {
	got, err := ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden fixture no longer decodes: %v", err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("golden fixture no longer validates: %v", err)
	}
	want := goldenSnapshot()
	want.Header.Version = 1
	if sec, ok := Diff(want, got); !ok {
		t.Fatalf("golden fixture differs in section %q — format drift", sec)
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
	if sec, ok := Diff(want, got); !ok {
		t.Fatalf("file round-trip lost section %q", sec)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), magic+"\x02\x00\x00\x00") {
		t.Errorf("file does not start with the magic and version 2: %q", raw[:12])
	}
}
