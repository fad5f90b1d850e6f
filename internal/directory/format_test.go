package directory

import (
	"reflect"
	"testing"
)

func sharersOf(ps ...int) Sharers {
	var s Sharers
	for _, p := range ps {
		s.Add(p)
	}
	return s
}

func TestFullVectorNeverAddsTargets(t *testing.T) {
	s := sharersOf(0, 1, 2, 3, 4, 5, 6, 7)
	if got := (FullVector{}).ExtraTargets(nil, &s, 0, 32); len(got) != 0 {
		t.Fatalf("fullvec added targets %v", got)
	}
}

func TestLimitedPointerWithinBudgetIsPrecise(t *testing.T) {
	f := NewLimitedPointer(4)
	s := sharersOf(1, 5, 9, 13)
	if got := f.ExtraTargets(nil, &s, 1, 16); len(got) != 0 {
		t.Fatalf("4 sharers within Dir4B budget produced extras %v", got)
	}
}

func TestLimitedPointerOverflowBroadcasts(t *testing.T) {
	f := NewLimitedPointer(4)
	s := sharersOf(0, 1, 2, 3, 4) // 5 sharers > 4 pointers
	got := f.ExtraTargets(nil, &s, 2, 8)
	// Broadcast: everyone except the requester (2) and true sharers (0-4).
	want := []int{5, 6, 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("broadcast extras = %v, want %v", got, want)
	}
}

func TestCoarseVectorCoversSharerRegionsOnly(t *testing.T) {
	f := NewCoarseVector(4)
	// Sharers in regions [0,4) and [8,12); requester 9 is in a covered
	// region. Region [4,8) has no sharer and must not be messaged.
	s := sharersOf(1, 10)
	got := f.ExtraTargets(nil, &s, 9, 16)
	want := []int{0, 2, 3, 8, 11}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("coarse extras = %v, want %v", got, want)
	}
}

func TestCoarseVectorPartialLastRegion(t *testing.T) {
	f := NewCoarseVector(4)
	s := sharersOf(9) // region [8,10) is clipped by procs=10
	got := f.ExtraTargets(nil, &s, 0, 10)
	want := []int{8}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clipped coarse extras = %v, want %v", got, want)
	}
}

// TestWriteExtraFanout drives the formats through Directory.Write: the
// precise Invalidate list must be format-independent, Extra must appear
// only past the representation's precision, and the entry must end
// Exclusive either way.
func TestWriteExtraFanout(t *testing.T) {
	for _, tc := range []struct {
		name      string
		d         *Directory
		wantExtra []int
	}{
		{"fullvec", NewWithFormat(FullVector{}, 8, nil), nil},
		{"limited", NewWithFormat(NewLimitedPointer(2), 8, nil), []int{3, 5, 6, 7}},
		{"coarse", NewWithFormat(NewCoarseVector(4), 8, nil), []int{3}},
	} {
		d := tc.d
		const block = 42
		for _, p := range []int{0, 1, 2} {
			d.Read(block, p)
		}
		res := d.Write(block, 4)
		if want := []int{0, 1, 2}; !reflect.DeepEqual(res.Invalidate, want) {
			t.Fatalf("%s: Invalidate = %v, want %v", tc.name, res.Invalidate, want)
		}
		if !reflect.DeepEqual(res.Extra, tc.wantExtra) {
			t.Fatalf("%s: Extra = %v, want %v", tc.name, res.Extra, tc.wantExtra)
		}
		if e := d.Entry(block); e.State != Exclusive || e.Owner != 4 {
			t.Fatalf("%s: entry after write = %+v", tc.name, e)
		}
		if err := d.Check(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestNewWithFormatFullVectorKeepsFastPath: a FullVector-formatted
// directory must use the nil fast path so the default machine's Write
// sequence is byte-for-byte the pre-format code.
func TestNewWithFormatFullVectorKeepsFastPath(t *testing.T) {
	d := NewWithFormat(FullVector{}, 128, nil)
	if d.format != nil {
		t.Fatal("FullVector did not collapse to the nil fast path")
	}
	if k := d.Format().Kind(); k != "fullvec" {
		t.Fatalf("Format().Kind() = %q, want fullvec", k)
	}
}

func TestFormatByKind(t *testing.T) {
	for _, tc := range []struct {
		kind  string
		param int
		want  string
	}{
		{"", 0, "fullvec"},
		{"fullvec", 0, "fullvec"},
		{"limited", 8, "limited"},
		{"coarse", 2, "coarse"},
	} {
		f, err := FormatByKind(tc.kind, tc.param)
		if err != nil {
			t.Fatalf("FormatByKind(%q): %v", tc.kind, err)
		}
		if f.Kind() != tc.want {
			t.Fatalf("FormatByKind(%q).Kind() = %q, want %q", tc.kind, f.Kind(), tc.want)
		}
		if f.Capacity() != MaxProcs {
			t.Fatalf("FormatByKind(%q).Capacity() = %d, want %d", tc.kind, f.Capacity(), MaxProcs)
		}
		if f.Describe() == "" {
			t.Fatalf("FormatByKind(%q): empty Describe", tc.kind)
		}
	}
	if _, err := FormatByKind("sparse", 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
