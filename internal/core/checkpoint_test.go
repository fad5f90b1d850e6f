package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"testing"

	"origin2000/internal/sim"
	"origin2000/internal/snapshot"
)

// sharingRun runs 16 processors — four routers, so four shards — reading
// and writing their own slices of an array and, every 50th access, a
// neighbour's, under checkpoint configuration ck. onNew sees the machine
// before it runs.
func sharingRun(t *testing.T, ck CheckpointConfig, onNew func(*Machine)) *Machine {
	t.Helper()
	cfg := Origin2000(16)
	cfg.Checkpoint = ck
	m := New(cfg)
	arr := m.Alloc("a", 1<<14, 8)
	if onNew != nil {
		onNew(m)
	}
	err := m.Run(func(p *Proc) {
		for i := 0; i < 300; i++ {
			owner := p.ID()
			if i%50 == 49 {
				owner = (owner + 5) % 16
			}
			idx := owner<<10 | (i*17)%(1<<10)
			if i%3 == 0 {
				p.Write(arr.Addr(idx))
			} else {
				p.Read(arr.Addr(idx))
			}
			p.Compute(100 * sim.Nanosecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// frameV1 writes the machine's state at the current quiescent point as an
// originckpt/v1 file did: the header, then every section's canonical
// JSON, each CRC-framed.
func frameV1(t *testing.T, m *Machine, h snapshot.Header) []byte {
	var b bytes.Buffer
	b.WriteString("ORGNCKP1")
	u32 := func(v uint32) { binary.Write(&b, binary.LittleEndian, v) }
	section := func(name string, v any) {
		payload, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		u32(uint32(len(name)))
		b.WriteString(name)
		u32(uint32(len(payload)))
		u32(crc32.ChecksumIEEE(payload))
		b.Write(payload)
	}
	u32(1)
	h.Version = 1
	section("header", &h)
	m.sections(section)
	u32(0)
	return b.Bytes()
}

// TestV1CheckpointResumes: a checkpoint written in the v1 framing, from a
// live capture's section JSON, still decodes to the live capture's
// digests, and a run resumes from it to the straight run's result.
func TestV1CheckpointResumes(t *testing.T) {
	straight := sharingRun(t, CheckpointConfig{}, nil)
	var m *Machine
	var live *snapshot.Snapshot
	var v1 []byte
	sharingRun(t, CheckpointConfig{Every: straight.Elapsed() / 2, Sink: func(sn *snapshot.Snapshot) error {
		if live == nil {
			live, v1 = sn, frameV1(t, m, sn.Header)
		}
		return nil
	}}, func(mm *Machine) { m = mm })
	if live == nil {
		t.Fatal("no checkpoint captured")
	}
	sn, err := snapshot.Decode(v1)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Header.Version != 1 {
		t.Errorf("decoded header version %d, want 1", sn.Header.Version)
	}
	if sec, ok := snapshot.ProveEqual(live, sn); !ok {
		t.Fatalf("v1 framing of the live capture digests differently in section %q", sec)
	}
	resumed := sharingRun(t, CheckpointConfig{Resume: sn}, nil)
	if resumed.Resuming() {
		t.Fatal("the resumed run never reached the checkpoint's quiescent point")
	}
	if got, want := resumed.Result().Counters, straight.Result().Counters; got != want || resumed.Elapsed() != straight.Elapsed() {
		t.Errorf("resumed run: %+v in %v, straight run: %+v in %v", got, resumed.Elapsed(), want, straight.Elapsed())
	}
}
