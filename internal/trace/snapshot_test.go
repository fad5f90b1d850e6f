package trace

import (
	"encoding/json"
	"testing"

	"origin2000/internal/sim"
)

// TestSnapFrozenAtCapture: a snap keeps the state it captured while the
// tracer records on, so an in-memory checkpoint's tracer section does not
// drift to the end of the run. After the capture the lossless rings spill
// again, and the heat, latency, sync and epoch records all grow.
func TestSnapFrozenAtCapture(t *testing.T) {
	tr := New(2, Options{Enabled: true, RingSize: 4, Lossless: true})
	tr.GrowPages(2)
	tr.RegisterSync(4096, "barrier")
	record := func(at sim.Time) {
		for p := 0; p < 2; p++ {
			tr.Miss(p, at, sim.Nanosecond, 1, 0, 0, 1, 2, EvMissRemoteDirty)
			tr.InvalRecv(1-p, at, 1, 0, p)
			tr.SyncWait(p, 4096, at, 3)
		}
		tr.EpochMark(at)
	}
	for at := sim.Time(0); at < 3; at++ {
		record(at)
	}
	snap := tr.Snap()
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for at := sim.Time(3); at < 20; at++ {
		record(at)
	}
	tr.Miss(0, 20, sim.Nanosecond, 131, 1, 1, 0, 0, EvMissLocal) // block 131 is on page 1
	tr.RegisterSync(8192, "lock")
	got, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if now, _ := json.Marshal(tr.Snap()); string(now) == string(want) {
		t.Fatal("recording after the capture left the tracer's state unchanged")
	}
	if string(got) != string(want) {
		t.Errorf("snap changed after capture:\nat capture %s\nnow        %s", want, got)
	}
}
