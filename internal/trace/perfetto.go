package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"origin2000/internal/sim"
)

// Perfetto (Chrome trace-event JSON) export. A run opens directly in
// ui.perfetto.dev / chrome://tracing: one thread track per simulated
// processor carrying the event slices (misses, sync waits, queue entries as
// duration slices; instantaneous events as zero-duration slices) plus
// counter tracks sampling per-resource queueing delay.
//
// The writer is deterministic — a pure function of the per-processor event
// slices, with hand-formatted fixed-point timestamps — and every event line
// embeds its exact picosecond payload in "args", so DecodePerfetto restores
// the event slices exactly and re-encoding is byte-identical. That makes
// the JSON itself a lossless interchange format, not just a viewer feed.

// perfettoTool names the producer in the trace header (and is checked by
// the decoder as a format guard).
const perfettoTool = "origin2000-trace/1"

// appendTS appends a virtual time as the microsecond fixed-point string the
// trace-event format expects, at full picosecond precision. It writes
// exactly what fmt's "%d.%06d" of the quotient and remainder writes, so
// existing traces keep their bytes; for a negative time the sign counts
// toward the fraction's width (-5ps is "0.-00005").
func appendTS(b []byte, t sim.Time) []byte {
	b = strconv.AppendInt(b, int64(t/sim.Microsecond), 10)
	b = append(b, '.')
	frac, width := int64(t%sim.Microsecond), 6
	if frac < 0 {
		b = append(b, '-')
		frac, width = -frac, 5
	}
	for lim := int64(10); width > 1; lim, width = lim*10, width-1 {
		if frac < lim {
			b = append(b, '0')
		}
	}
	return strconv.AppendInt(b, frac, 10)
}

// quotedKindNames are the kinds' display names as JSON strings.
var quotedKindNames = func() (q [numKinds]string) {
	for k := range q {
		q[k] = strconv.Quote(kindNames[k])
	}
	return q
}()

// perfettoFlush is the buffered size at which the encoder writes out; its
// buffer holds twice that, so the line that crosses it never regrows it.
const perfettoFlush = 64 << 10

// perfettoWriter is the streaming Chrome trace-event encoder behind both
// export entry points. Each line is appended to one reused buffer, which
// is written out whenever it passes perfettoFlush bytes, so an export
// allocates the same whatever its event count. The first write error
// sticks: later calls append nothing.
type perfettoWriter struct {
	w   io.Writer
	b   []byte
	err error
}

// newPerfettoWriter starts a trace of procs processors: the header and
// one thread-name record per processor.
func newPerfettoWriter(w io.Writer, procs int) *perfettoWriter {
	b := make([]byte, 0, 2*perfettoFlush)
	b = append(b, `{"displayTimeUnit":"ns","otherData":{"tool":`...)
	b = strconv.AppendQuote(b, perfettoTool)
	b = append(b, `,"procs":"`...)
	b = strconv.AppendInt(b, int64(procs), 10)
	b = append(b, "\"},\"traceEvents\":[\n"...)
	b = append(b, `{"ph":"M","pid":0,"name":"process_name","args":{"name":"origin2000"}}`...)
	for p := 0; p < procs; p++ {
		b = append(b, ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":"...)
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, `,"name":"thread_name","args":{"name":"cpu`...)
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, `"}}`...)
	}
	return &perfettoWriter{w: w, b: b}
}

// events encodes a run of processor p's events, oldest first.
func (pw *perfettoWriter) events(p int, evs []Event) {
	for _, ev := range evs {
		if pw.err != nil {
			return
		}
		pw.b = appendPerfettoEvent(pw.b, p, ev)
		if len(pw.b) >= perfettoFlush {
			_, pw.err = pw.w.Write(pw.b)
			pw.b = pw.b[:0]
		}
	}
}

// close ends the trace and writes out what is buffered.
func (pw *perfettoWriter) close() error {
	if pw.err != nil {
		return pw.err
	}
	_, err := pw.w.Write(append(pw.b, "\n]}\n"...))
	return err
}

// ExportPerfetto writes per-processor event streams as Chrome trace-event
// JSON. It is a pure function of procs, so decode→re-encode round-trips to
// identical bytes.
func ExportPerfetto(w io.Writer, procs [][]Event) error {
	pw := newPerfettoWriter(w, len(procs))
	for p, evs := range procs {
		pw.events(p, evs)
	}
	return pw.close()
}

// appendPerfettoEvent appends processor p's event ev as one complete-event
// line carrying its exact payload in "args", plus a counter sample when ev
// is a queueing event.
func appendPerfettoEvent(b []byte, p int, ev Event) []byte {
	b = append(b, ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":"...)
	b = strconv.AppendInt(b, int64(p), 10)
	b = append(b, `,"ts":`...)
	b = appendTS(b, ev.Time)
	b = append(b, `,"dur":`...)
	b = appendTS(b, ev.Dur)
	b = append(b, `,"name":`...)
	if ev.Kind < numKinds {
		b = append(b, quotedKindNames[ev.Kind]...)
	} else {
		b = strconv.AppendQuote(b, ev.Kind.String())
	}
	b = append(b, `,"cat":"machine","args":{"k":`...)
	b = strconv.AppendUint(b, uint64(ev.Kind), 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, int64(ev.Time), 10)
	b = append(b, `,"d":`...)
	b = strconv.AppendInt(b, int64(ev.Dur), 10)
	b = append(b, `,"a":`...)
	b = strconv.AppendUint(b, ev.Addr, 10)
	b = append(b, `,"g":`...)
	b = strconv.AppendInt(b, int64(ev.Arg), 10)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(ev.Node), 10)
	b = append(b, "}}"...)
	// Queue events also feed a per-resource counter track so contention
	// hot spots are visible without opening slices.
	switch ev.Kind {
	case EvHubQueue, EvMemQueue, EvRouterQueue, EvMetaQueue:
		b = append(b, ",\n{\"ph\":\"C\",\"pid\":0,\"ts\":"...)
		b = appendTS(b, ev.Time)
		b = append(b, `,"name":"`...)
		b = append(b, counterPrefix(ev.Kind)...)
		b = strconv.AppendInt(b, int64(ev.Node), 10)
		b = append(b, ` delay (ns)","args":{"ns":`...)
		b = strconv.AppendInt(b, int64(ev.Dur)/int64(sim.Nanosecond), 10)
		b = append(b, "}}"...)
	}
	return b
}

func counterPrefix(k Kind) string {
	switch k {
	case EvHubQueue:
		return "hub"
	case EvMemQueue:
		return "mem"
	case EvRouterQueue:
		return "router"
	default:
		return "meta"
	}
}

// pfFile/pfEvent mirror the subset of the trace-event schema the decoder
// needs; everything else (counter samples, metadata) is derived on encode
// and therefore skipped on decode.
type pfFile struct {
	OtherData   map[string]string `json:"otherData"`
	TraceEvents []pfEvent         `json:"traceEvents"`
}

type pfEvent struct {
	Ph   string  `json:"ph"`
	Tid  int     `json:"tid"`
	Args *pfArgs `json:"args"`
}

type pfArgs struct {
	K *uint8 `json:"k"`
	T int64  `json:"t"`
	D int64  `json:"d"`
	A uint64 `json:"a"`
	G int32  `json:"g"`
	N int16  `json:"n"`
}

// DecodePerfetto parses a trace written by ExportPerfetto back into
// per-processor event streams.
func DecodePerfetto(r io.Reader) ([][]Event, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var f pfFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("trace: perfetto decode: %w", err)
	}
	if tool := f.OtherData["tool"]; tool != perfettoTool {
		return nil, fmt.Errorf("trace: perfetto decode: not an origin2000 trace (tool=%q)", tool)
	}
	n, err := strconv.Atoi(f.OtherData["procs"])
	if err != nil || n < 1 {
		return nil, fmt.Errorf("trace: perfetto decode: bad proc count %q", f.OtherData["procs"])
	}
	procs := make([][]Event, n)
	for _, e := range f.TraceEvents {
		if e.Ph != "X" || e.Args == nil || e.Args.K == nil {
			continue // metadata or derived counter sample
		}
		if e.Tid < 0 || e.Tid >= n {
			return nil, fmt.Errorf("trace: perfetto decode: event tid %d out of range [0,%d)", e.Tid, n)
		}
		if *e.Args.K >= uint8(numKinds) {
			return nil, fmt.Errorf("trace: perfetto decode: unknown event kind %d", *e.Args.K)
		}
		procs[e.Tid] = append(procs[e.Tid], Event{
			Time: sim.Time(e.Args.T),
			Dur:  sim.Time(e.Args.D),
			Addr: e.Args.A,
			Arg:  e.Args.G,
			Node: e.Args.N,
			Kind: Kind(*e.Args.K),
		})
	}
	return procs, nil
}

// WritePerfetto exports the tracer's surviving event streams. It writes
// the bytes ExportPerfetto writes for AllEvents, but encodes each ring in
// place instead of copying it out first.
func (t *Tracer) WritePerfetto(w io.Writer) error {
	pw := newPerfettoWriter(w, len(t.rings))
	for p := range t.rings {
		r := &t.rings[p]
		older, newer := r.residentRuns()
		pw.events(p, r.spill)
		pw.events(p, older)
		pw.events(p, newer)
	}
	return pw.close()
}
