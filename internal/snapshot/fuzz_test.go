package snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"origin2000/internal/memclass"
	"origin2000/internal/sharing"
)

// FuzzSnapshotDecode feeds the section decoders fuzzed JSON inside a
// well-formed container: the golden fixture's sections in canonical order,
// one of them replaced by the fuzzed payload under a valid length and CRC,
// so inputs get past the framing to the JSON decoders. A sharing section,
// which the fixture predates, is added when the fuzzed index names it.
// Decode and Validate must never panic, nor AuditState on a snapshot that
// validates, and a snapshot that validates must re-encode and decode again
// to one Diff finds equal.
func FuzzSnapshotDecode(f *testing.F) {
	fixture, err := ReadFile(goldenPath)
	if err != nil {
		f.Fatalf("read golden fixture: %v", err)
	}
	secs := fixture.sections()
	payloads := make([][]byte, len(secs))
	for i, sec := range secs {
		if !sec.present {
			continue
		}
		if payloads[i], err = json.Marshal(sec.ptr); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), payloads[i])
	}
	// A classifier on the fixture's two processors and one node, with a
	// sharing miss, an invalidation and a pending verdict.
	o := sharing.New(fixture.Header.Procs, 1)
	o.OnMiss(0, 7, 0, true, memclass.Local, 0, 0, 0)
	o.OnInvalidate(0, 7)
	o.OnMiss(1, 7, 8, true, memclass.RemoteDirty, 0, 0, 0)
	o.OnInvalidate(1, 7)
	o.OnMiss(0, 7, 0, false, memclass.RemoteDirty, 0, 0, 0)
	sh, err := json.Marshal(o.Snap())
	if err != nil {
		f.Fatal(err)
	}
	for i, sec := range secs {
		if sec.name == secSharing {
			f.Add(uint8(i), sh)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		var b bytes.Buffer
		b.WriteString(magic)
		writeU32(&b, Version)
		k := int(which) % len(secs)
		for i, sec := range secs {
			switch {
			case i == k:
				writeSection(&b, sec.name, payload)
			case sec.present:
				writeSection(&b, sec.name, payloads[i])
			}
		}
		writeU32(&b, 0)
		sn, err := Decode(b.Bytes())
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("Decode error is %T, want *FormatError: %v", err, err)
			}
			return
		}
		if sn.Validate() != nil {
			return
		}
		AuditState(sn)
		enc, err := sn.Encode()
		if err != nil {
			t.Fatalf("a validated snapshot does not encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("a validated snapshot's encoding does not decode: %v", err)
		}
		if sec, ok := Diff(sn, again); !ok {
			t.Fatalf("section %q changed across a re-encode", sec)
		}
	})
}
