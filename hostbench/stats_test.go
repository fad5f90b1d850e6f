package main

import "testing"

// The expected quartiles are Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5.5, 1.25, 9.0, 2.0, 7.75, 3.5, 8.25}, 2, 5.5, 8.25},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 19)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if s := summarize(xs); s.TailP != 0 {
		t.Errorf("19 samples: tail p%d reported, want none", s.TailP)
	}
	for n := 20; n <= 100; n += 7 {
		xs = xs[:0]
		for i := 0; i < n; i++ {
			xs = append(xs, float64(n-i)) // unsorted input
		}
		s := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if s.TailP < 50 || beyond < 10 {
			t.Errorf("n=%d: tail p%d = %v has %d samples beyond it, want >= 10", n, s.TailP, s.Tail, beyond)
		}
	}
}

func TestSpread(t *testing.T) {
	s := summarize([]float64{9, 10, 11, 10, 10})
	if got, want := s.spread(), (10.5-9.5)/10; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
