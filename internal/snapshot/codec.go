package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The originckpt/v1 container is deliberately dumb: a fixed magic, a format
// version, then a flat list of named sections, each a CRC-guarded JSON
// payload, closed by an end marker. Corruption anywhere yields a
// FormatError naming the section, never a panic, and unknown sections are
// rejected rather than skipped so a v2 writer cannot be half-read by a v1
// reader. Unknown fields inside a section are rejected the same way: state
// this build cannot represent must fail the decode, not be dropped and
// replayed without.
//
//	offset  size  field
//	0       8     magic "ORGNCKP1"
//	8       4     u32 format version (little-endian)
//	12      ...   sections:
//	                u32 name length (0 terminates the file)
//	                name bytes
//	                u32 payload length
//	                u32 CRC-32 (IEEE) of the payload
//	                payload (deterministic JSON)
//
// Section order on encode is fixed (header first, observers last, nil
// observers skipped); decode accepts any order but requires the header and
// rejects duplicates.
const magic = "ORGNCKP1"

// Section names, in canonical encode order.
const (
	secHeader      = "header"
	secEngine      = "engine"
	secProcs       = "procs"
	secCaches      = "caches"
	secDirectories = "directories"
	secMemPolicy   = "mempolicy"
	secResources   = "resources"
	secMemory      = "memory"
	secSyncs       = "syncs"
	secChecker     = "checker"
	secTracer      = "tracer"
	secMetrics     = "metrics"
	secSharing     = "sharing"
)

const (
	maxNameLen    = 64
	maxPayloadLen = 1 << 30
)

type section struct {
	name string
	val  any
}

func (s *Snapshot) sections() []section {
	out := []section{
		{secHeader, &s.Header},
		{secEngine, &s.Engine},
		{secProcs, &s.Procs},
		{secCaches, &s.Caches},
		{secDirectories, &s.Directories},
		{secMemPolicy, &s.MemPolicy},
		{secResources, &s.Resources},
		{secMemory, &s.Memory},
		{secSyncs, &s.Syncs},
	}
	if s.Checker != nil {
		out = append(out, section{secChecker, s.Checker})
	}
	if s.Tracer != nil {
		out = append(out, section{secTracer, s.Tracer})
	}
	if s.Metrics != nil {
		out = append(out, section{secMetrics, s.Metrics})
	}
	if s.Sharing != nil {
		out = append(out, section{secSharing, s.Sharing})
	}
	return out
}

// Encode serializes the snapshot into the originckpt/v1 byte format.
// Payloads are Go's canonical JSON (struct order fixed, map keys sorted),
// so the same state always encodes to the same bytes.
func (s *Snapshot) Encode() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	writeU32(&buf, Version)
	for _, sec := range s.sections() {
		payload, err := json.Marshal(sec.val)
		if err != nil {
			return nil, &FormatError{sec.name, "encode: " + err.Error()}
		}
		writeSection(&buf, sec.name, payload)
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

// Decode parses an originckpt/v1 byte stream. Every malformation —
// truncation, bad magic, CRC mismatch, duplicate or unknown section,
// payload that fails to parse or carries a field its section does not
// declare — returns a FormatError naming the section it was found in.
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
	if ver != Version {
		return nil, &FormatError{"", fmt.Sprintf("format version %d, this build reads %d", ver, Version)}
	}
	s := &Snapshot{}
	targets := map[string]any{
		secHeader:      &s.Header,
		secEngine:      &s.Engine,
		secProcs:       &s.Procs,
		secCaches:      &s.Caches,
		secDirectories: &s.Directories,
		secMemPolicy:   &s.MemPolicy,
		secResources:   &s.Resources,
		secMemory:      &s.Memory,
		secSyncs:       &s.Syncs,
		secChecker:     &s.Checker,
		secTracer:      &s.Tracer,
		secMetrics:     &s.Metrics,
		secSharing:     &s.Sharing,
	}
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
		target, known := targets[name]
		if !known {
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
		if err := decodeStrict(payload, target); err != nil {
			return nil, &FormatError{name, "payload does not parse: " + err.Error()}
		}
	}
	if r.off != len(r.data) {
		return nil, &FormatError{"", fmt.Sprintf("%d trailing bytes after end marker", len(r.data)-r.off)}
	}
	if !seen[secHeader] {
		return nil, &FormatError{secHeader, "missing"}
	}
	return s, nil
}

// decodeStrict parses one JSON payload into target, rejecting unknown
// fields and anything after the value.
func decodeStrict(payload []byte, target any) error {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(target); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the payload")
	}
	return nil
}

// ReadFile reads and decodes an originckpt/v1 file.
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
