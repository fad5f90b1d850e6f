package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// The originckpt container is deliberately dumb: a fixed magic, a format
// version, then a flat list of named sections, each a CRC-guarded payload,
// closed by an end marker. Corruption anywhere yields a FormatError naming
// the section, never a panic, and unknown sections are rejected rather
// than skipped so a later writer cannot be half-read by this reader.
//
//	offset  size  field
//	0       8     magic "ORGNCKP1"
//	8       4     u32 format version (little-endian)
//	12      ...   sections:
//	                u32 name length (0 terminates the file)
//	                name bytes
//	                u32 payload length
//	                u32 CRC-32 (IEEE) of the payload
//	                payload
//
// In version 2 the header's payload is its JSON and every other payload is
// the section's 32-byte Digest. Version 1 stored every section's canonical
// JSON; Decode digests each non-header v1 payload as it reads it, so a v1
// checkpoint proves against a live replay as a v2 one does.
//
// Section order on encode is fixed (header first, observers last, absent
// observers skipped); decode accepts any order but requires the header and
// every simulation section, and rejects duplicates.
const magic = "ORGNCKP1"

// secHeader names the header section, the one a checkpoint keeps whole.
const secHeader = "header"

// simSections are the simulation sections, which every checkpoint holds;
// observerSections are present only when the capturing run had that
// observer enabled.
var (
	simSections = []string{
		"engine", "procs", "caches", "directories", "mempolicy",
		"resources", "memory", "syncs",
	}
	observerSections = []string{"checker", "tracer", "metrics", "sharing"}
)

// sectionNames lists every section in canonical order, the header first.
// It is the one list the codec, Validate, ProveEqual and Diff walk.
var sectionNames = slices.Concat([]string{secHeader}, simSections, observerSections)

const (
	maxNameLen    = 64
	maxPayloadLen = 1 << 30
)

// Encode serializes the snapshot into the originckpt/v2 byte format: the
// header's canonical JSON, then each present section's digest.
func (s *Snapshot) Encode() ([]byte, error) {
	hdr, err := json.Marshal(&s.Header)
	if err != nil {
		return nil, &FormatError{secHeader, "encode: " + err.Error()}
	}
	var buf bytes.Buffer
	buf.WriteString(magic)
	writeU32(&buf, Version)
	writeSection(&buf, secHeader, hdr)
	for _, name := range sectionNames[1:] {
		if d, ok := s.Digests[name]; ok {
			writeSection(&buf, name, d[:])
		}
	}
	writeU32(&buf, 0) // end marker
	return buf.Bytes(), nil
}

// WriteFile encodes the snapshot and writes it to path.
func (s *Snapshot) WriteFile(path string) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Decode parses an originckpt byte stream of version 1 or 2. Every
// malformation — truncation, bad magic, CRC mismatch, duplicate, unknown
// or missing section, a header that fails to parse or carries a field
// Header does not declare, a v2 digest that is not 32 bytes — returns a
// FormatError naming the section it was found in.
func Decode(data []byte) (*Snapshot, error) {
	r := &reader{data: data}
	var hdr [len(magic)]byte
	if err := r.read(hdr[:], "", "magic"); err != nil {
		return nil, err
	}
	if string(hdr[:]) != magic {
		return nil, &FormatError{"", fmt.Sprintf("bad magic %q, not an originckpt file", hdr[:])}
	}
	ver, err := r.u32("", "version")
	if err != nil {
		return nil, err
	}
	if ver != 1 && ver != Version {
		return nil, &FormatError{"", fmt.Sprintf("format version %d, this build reads 1 and %d", ver, Version)}
	}
	s := &Snapshot{Digests: map[string]Digest{}}
	seen := map[string]bool{}
	for {
		nameLen, err := r.u32("", "section name length")
		if err != nil {
			return nil, err
		}
		if nameLen == 0 {
			break
		}
		if nameLen > maxNameLen {
			return nil, &FormatError{"", fmt.Sprintf("section name length %d exceeds limit %d", nameLen, maxNameLen)}
		}
		nameBuf, err := r.slice(int(nameLen), "", "section name")
		if err != nil {
			return nil, err
		}
		name := string(nameBuf)
		if !slices.Contains(sectionNames, name) {
			return nil, &FormatError{name, "unknown section"}
		}
		if seen[name] {
			return nil, &FormatError{name, "duplicate section"}
		}
		seen[name] = true
		payloadLen, err := r.u32(name, "payload length")
		if err != nil {
			return nil, err
		}
		if payloadLen > maxPayloadLen {
			return nil, &FormatError{name, fmt.Sprintf("payload length %d exceeds limit %d", payloadLen, maxPayloadLen)}
		}
		want, err := r.u32(name, "checksum")
		if err != nil {
			return nil, err
		}
		payload, err := r.slice(int(payloadLen), name, "payload")
		if err != nil {
			return nil, err
		}
		if got := crc32.ChecksumIEEE(payload); got != want {
			return nil, &FormatError{name, fmt.Sprintf("checksum mismatch: stored %08x, computed %08x", want, got)}
		}
		switch {
		case name == secHeader:
			if err := decodeHeader(payload, &s.Header); err != nil {
				return nil, &FormatError{name, "payload does not parse: " + err.Error()}
			}
		case ver == 1:
			s.Digests[name] = sha256.Sum256(payload)
		case len(payload) != sha256.Size:
			return nil, &FormatError{name, fmt.Sprintf("digest of %d bytes, want %d", len(payload), sha256.Size)}
		default:
			s.Digests[name] = Digest(payload)
		}
	}
	if r.off != len(r.data) {
		return nil, &FormatError{"", fmt.Sprintf("%d trailing bytes after end marker", len(r.data)-r.off)}
	}
	if !seen[secHeader] {
		return nil, &FormatError{secHeader, "missing"}
	}
	if err := s.missing(); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeHeader parses the header payload into h, rejecting unknown fields
// and anything after the value.
func decodeHeader(payload []byte, h *Header) error {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(h); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the payload")
	}
	return nil
}

// ReadFile reads and decodes an originckpt file.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

type reader struct {
	data []byte
	off  int
}

// slice returns the next n bytes without copying, so a corrupted length
// field can never force a large allocation: the bytes must already exist.
func (r *reader) slice(n int, sec, what string) ([]byte, error) {
	if len(r.data)-r.off < n {
		return nil, &FormatError{sec, fmt.Sprintf("truncated reading %s: need %d bytes, have %d",
			what, n, len(r.data)-r.off)}
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) read(dst []byte, sec, what string) error {
	if len(r.data)-r.off < len(dst) {
		return &FormatError{sec, fmt.Sprintf("truncated reading %s: need %d bytes, have %d",
			what, len(dst), len(r.data)-r.off)}
	}
	copy(dst, r.data[r.off:])
	r.off += len(dst)
	return nil
}

func (r *reader) u32(sec, what string) (uint32, error) {
	var b [4]byte
	if err := r.read(b[:], sec, what); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// writeSection appends one section record: name, payload length, CRC and
// payload.
func writeSection(buf *bytes.Buffer, name string, payload []byte) {
	writeU32(buf, uint32(len(name)))
	buf.WriteString(name)
	writeU32(buf, uint32(len(payload)))
	writeU32(buf, crc32.ChecksumIEEE(payload))
	buf.Write(payload)
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}
