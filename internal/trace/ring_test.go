package trace

import (
	"testing"

	"origin2000/internal/sim"
)

func mkEvent(i int) Event {
	return Event{
		Time: sim.Time(i) * sim.Nanosecond,
		Dur:  sim.Time(i % 7),
		Addr: uint64(i * 3),
		Arg:  int32(i % 5),
		Node: int16(i % 4),
		Kind: Kind(i % int(numKinds)),
	}
}

func TestRingSizeRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, DefaultRingSize}, {-1, DefaultRingSize},
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {1000, 1024},
	} {
		r := newRing(tc.ask, false)
		if len(r.buf) != tc.want {
			t.Errorf("newRing(%d): capacity %d, want %d", tc.ask, len(r.buf), tc.want)
		}
	}
}

func TestRingWraparoundKeepsNewestWindow(t *testing.T) {
	const size, total = 8, 21
	r := newRing(size, false)
	for i := 0; i < total; i++ {
		r.record(mkEvent(i))
	}
	evs := r.events()
	if len(evs) != size {
		t.Fatalf("got %d surviving events, want %d", len(evs), size)
	}
	// The survivors must be exactly the newest `size` events, oldest first.
	for j, ev := range evs {
		want := mkEvent(total - size + j)
		if ev != want {
			t.Errorf("event %d: got %+v, want %+v", j, ev, want)
		}
	}
	if got := r.dropped(); got != total-size {
		t.Errorf("dropped = %d, want %d", got, total-size)
	}
	if got := r.n; got != total {
		t.Errorf("recorded = %d, want %d", got, total)
	}
}

func TestRingUnderfilledIsComplete(t *testing.T) {
	r := newRing(16, false)
	for i := 0; i < 5; i++ {
		r.record(mkEvent(i))
	}
	evs := r.events()
	if len(evs) != 5 || r.dropped() != 0 {
		t.Fatalf("got %d events, %d dropped; want 5, 0", len(evs), r.dropped())
	}
	for j, ev := range evs {
		if ev != mkEvent(j) {
			t.Errorf("event %d mismatch", j)
		}
	}
}

func TestRingLosslessSpillKeepsEverything(t *testing.T) {
	const size = 4
	// Cross several spill epochs and stop mid-epoch.
	for _, total := range []int{4, 5, 8, 9, 17, 31} {
		r := newRing(size, true)
		for i := 0; i < total; i++ {
			r.record(mkEvent(i))
		}
		evs := r.events()
		if len(evs) != total {
			t.Fatalf("total=%d: got %d surviving events", total, len(evs))
		}
		for j, ev := range evs {
			if ev != mkEvent(j) {
				t.Fatalf("total=%d: event %d: got %+v, want %+v", total, j, ev, mkEvent(j))
			}
		}
		if r.dropped() != 0 {
			t.Errorf("total=%d: lossless ring reports %d dropped", total, r.dropped())
		}
	}
}

func TestTracerEventAccounting(t *testing.T) {
	tr := New(2, Options{Enabled: true, RingSize: 4})
	tr.GrowPages(1)
	for i := 0; i < 10; i++ {
		tr.Miss(i%2, sim.Time(i), sim.Nanosecond, 1, 0, 0, 0, 1, EvMissLocal)
	}
	if got := tr.EventsRecorded(); got != 10 {
		t.Errorf("EventsRecorded = %d, want 10", got)
	}
	if got := tr.EventsDropped(); got != 2 {
		t.Errorf("EventsDropped = %d, want 2 (two rings of 4 holding 8)", got)
	}
	if got := len(tr.AllEvents()); got != 2 {
		t.Errorf("AllEvents streams = %d, want 2", got)
	}
}
