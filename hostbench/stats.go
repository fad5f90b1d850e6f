package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric's samples: per-pass values
// within a run, or per-run values within a set of runs.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Tail is the highest percentile with at least ten samples beyond it
	// (TailP, e.g. 83 for p83). Both are zero below 20 samples, where no
	// percentile above the median has ten samples beyond it.
	TailP int     `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// quartiles returns the first quartile, median and third quartile of xs by
// the rule of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here and by a Python reader of
// the same values agree. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// summarize computes the summary of xs.
func summarize(xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	s := summary{Median: med, Q1: q1, Q3: q3, N: len(xs)}
	if n := len(xs); n >= 20 {
		// Nearest-rank percentile with exactly ten or more samples above it.
		d := append([]float64(nil), xs...)
		sort.Float64s(d)
		s.TailP = 100 * (n - 10) / n
		s.Tail = d[(n*s.TailP+99)/100-1]
	}
	return s
}

// spread is the quartile distance as a share of the median: the noise
// measure that the benchmark's bounds are compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
