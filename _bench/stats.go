package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method (Python's statistics.quantiles(xs, n=4)
// default), so the spread this program reports is the one an outside
// reader recomputes from the same values. The median is the ordinary
// one: the mean of the two middle values for an even count. xs is not
// modified; an empty xs yields NaNs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4 // outside 0..4 for tiny n: Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle quartile of xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// tailPercentile picks the highest of the percentiles 50, 90, 99, 99.9,
// … that still leaves at least ten samples strictly above its
// nearest-rank value, and returns that percentile with its value. With
// fewer than eleven samples no percentile qualifies and the maximum is
// returned as percentile 100. sorted must be ascending.
func tailPercentile(sorted []float64) (pct, value float64) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	pct, rank := 100.0, n
	for d := 0; ; d++ {
		p := 50.0
		if d > 0 {
			p = 100 - math.Pow(10, float64(2-d)) // 90, 99, 99.9, …
		}
		// The tolerance absorbs the binary rounding of p, so a rank
		// that is exactly an integer is not pushed up by one.
		r := int(math.Ceil(p*float64(n)/100 - 1e-6))
		if n-r < 10 {
			break
		}
		pct, rank = p, r
	}
	return pct, sorted[rank-1]
}

// span is one timed call into a layer, recorded from outside it. Start
// and end are nanoseconds since the rep began; Parent indexes the
// enclosing span in the same rep, -1 for a root.
type span struct {
	Workload string `json:"workload,omitempty"`
	Rep      int    `json:"rep"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
}

// selfTimes returns, per span, its duration minus the durations of its
// direct children: the time the span's own layer spent outside every
// call it made into another timed layer. Children never overlap one
// another (calls are sequential), so subtracting durations is exact.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}
