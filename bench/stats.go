package main

import (
	"math"
	"sort"
	"time"
)

// samples is a latency sample set in nanoseconds. Percentiles sort a copy
// once; the loops only ever append.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// pct returns the q-quantile (nearest rank) of an already sorted set, in
// microseconds; 0 for an empty set.
func (s samples) pct(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / 1e3
}

// p50us is the median of an unsorted set in microseconds.
func p50us(s samples) float64 { return s.sorted().pct(0.50) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if n := len(c); n%2 == 1 {
		return c[n/2]
	} else {
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) does, so
// the spread printed here is the spread the acceptance procedure computes.
// It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (c[j-1]*float64(4-delta) + c[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound in BENCHMARK.json is judged against.
// ok is false when fewer than two runs exist or the median is zero.
func spread(v []float64) (s float64, ok bool) {
	if len(v) < 2 {
		return 0, false
	}
	m := median(v)
	if m == 0 {
		return 0, false
	}
	q1, q3 := quartiles(v)
	return math.Abs(q3-q1) / math.Abs(m), true
}
