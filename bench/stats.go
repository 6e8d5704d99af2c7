package main

import (
	"math"
	"sort"
)

// pctl returns the q-quantile of sorted values (nearest rank below).
func pctl(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// tail returns the highest percentile up to 99.9 that still has at
// least ten samples beyond it: with fewer than 10,000 samples a p99.9
// would rest on a handful of values.
func tail(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := min(int(0.999*float64(len(sorted)-1)), len(sorted)-11)
	return sorted[max(i, 0)]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method),
// which is how the contract measures a metric's spread.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
