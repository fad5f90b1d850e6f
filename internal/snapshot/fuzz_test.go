package snapshot

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzSnapshotDecode feeds Decode fuzzed section payloads inside a
// well-formed container of either version: the golden snapshot's sections
// in canonical order — digests for version 2, the sections' canonical
// JSON for version 1 — with one of them replaced by the fuzzed payload
// under a valid length and CRC, so inputs get past the framing. A sharing
// section, which the golden sections lack, is added when the fuzzed index
// names it. Decode must never panic and must fail only with a FormatError,
// and a snapshot that validates must re-encode as version 2 and decode
// again to one Diff finds equal.
func FuzzSnapshotDecode(f *testing.F) {
	golden := goldenSnapshot()
	hdr, err := json.Marshal(&golden.Header)
	if err != nil {
		f.Fatal(err)
	}
	v1 := map[string][]byte{secHeader: hdr}
	for _, sec := range goldenSections() {
		if v1[sec.name], err = json.Marshal(sec.v); err != nil {
			f.Fatal(err)
		}
	}
	payload := func(v1Framing bool, name string) ([]byte, bool) {
		if name == secHeader || v1Framing {
			p, ok := v1[name]
			return p, ok
		}
		d, ok := golden.Digests[name]
		return d[:], ok
	}
	for i, name := range sectionNames {
		for _, v1Framing := range []bool{false, true} {
			if p, ok := payload(v1Framing, name); ok {
				f.Add(uint8(i), v1Framing, p)
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, v1Framing bool, fuzzed []byte) {
		var recs []record
		k := int(which) % len(sectionNames)
		for i, name := range sectionNames {
			if i == k {
				recs = append(recs, record{name, fuzzed})
			} else if p, ok := payload(v1Framing, name); ok {
				recs = append(recs, record{name, p})
			}
		}
		version := uint32(Version)
		if v1Framing {
			version = 1
		}
		sn, err := Decode(frame(version, recs...))
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
