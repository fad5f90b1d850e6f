package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// This file decodes the CPU profiles that runtime/pprof writes (gzipped
// profile.proto) with the standard library alone: the benchmark must not
// add a module dependency, and it only needs each sample's call stack,
// value and labels.

// cpuSample is one decoded profile sample.
type cpuSample struct {
	// Funcs lists the sample's call stack as function names, innermost
	// (leaf) frame first, with inlined frames expanded.
	Funcs []string
	// NS is the sample's CPU time in nanoseconds.
	NS int64
	// Labels holds the pprof labels of the sampled goroutine.
	Labels map[string]string
}

// pbReader walks one protobuf message.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
	}
	r.err = errors.New("varint overflows 64 bits")
	return 0
}

// next reads one field key and its payload. For wire type 2 the payload is
// returned in data; for varints in v. Fixed-width fields are skipped.
func (r *pbReader) next() (field int, wire int, v uint64, data []byte, ok bool) {
	if r.err != nil || len(r.b) == 0 {
		return 0, 0, 0, nil, false
	}
	key := r.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = r.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(r.b) < n {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		r.b = r.b[n:]
	case 2:
		n := r.varint()
		if n > uint64(len(r.b)) {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		data, r.b = r.b[:n], r.b[n:]
	default:
		r.err = fmt.Errorf("unsupported protobuf wire type %d", wire)
	}
	return field, wire, v, data, r.err == nil
}

// uints appends a repeated integer field, which the encoder writes either
// packed (wire type 2) or as one varint per element.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := pbReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

// decodeProfile parses a (possibly gzipped) profile.proto CPU profile.
func decodeProfile(data []byte) ([]cpuSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawLabel struct{ key, str uint64 }
	type rawSample struct {
		locs, vals []uint64
		labels     []rawLabel
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	top := pbReader{b: data}
	for {
		f, _, _, d, ok := top.next()
		if !ok {
			break
		}
		var err error
		switch f {
		case 2: // Sample
			var s rawSample
			r := pbReader{b: d}
			for {
				sf, sw, sv, sd, ok := r.next()
				if !ok {
					break
				}
				switch sf {
				case 1:
					s.locs, err = uints(s.locs, sw, sv, sd)
				case 2:
					s.vals, err = uints(s.vals, sw, sv, sd)
				case 3:
					var l rawLabel
					lr := pbReader{b: sd}
					for {
						lf, _, lv, _, ok := lr.next()
						if !ok {
							break
						}
						switch lf {
						case 1:
							l.key = lv
						case 2:
							l.str = lv
						}
					}
					err = errors.Join(err, lr.err)
					s.labels = append(s.labels, l)
				}
				if err != nil {
					break
				}
			}
			err = errors.Join(err, r.err)
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			r := pbReader{b: d}
			for {
				lf, _, lv, ld, ok := r.next()
				if !ok {
					break
				}
				switch lf {
				case 1:
					id = lv
				case 4: // Line
					lr := pbReader{b: ld}
					for {
						nf, _, nv, _, ok := lr.next()
						if !ok {
							break
						}
						if nf == 1 {
							fns = append(fns, nv)
						}
					}
					err = errors.Join(err, lr.err)
				}
			}
			locs[id] = fns
			err = errors.Join(err, r.err)
		case 5: // Function
			var id, name uint64
			r := pbReader{b: d}
			for {
				ff, _, fv, _, ok := r.next()
				if !ok {
					break
				}
				switch ff {
				case 1:
					id = fv
				case 2:
					name = fv
				}
			}
			funcs[id] = name
			err = r.err
		case 6: // string_table
			strs = append(strs, string(d))
		}
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("profile: %w", top.err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{}
		// Go CPU profiles carry [sample count, CPU nanoseconds]; the last
		// value is the time.
		if n := len(s.vals); n > 0 {
			cs.NS = int64(s.vals[n-1])
		}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				cs.Funcs = append(cs.Funcs, str(funcs[fn]))
			}
		}
		for _, l := range s.labels {
			if cs.Labels == nil {
				cs.Labels = map[string]string{}
			}
			cs.Labels[str(l.key)] = str(l.str)
		}
		out = append(out, cs)
	}
	return out, nil
}
