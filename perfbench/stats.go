package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail statistic resting on fewer is one or two unlucky requests, not a
// property of the system.
const minTail = 10

// beyond returns how many of n samples lie strictly above the pct-th
// percentile taken by nearest rank (integer arithmetic, so 95% of 200
// is rank 190 exactly, not 190.00000000000003).
func beyond(n, pct int) int {
	return n - rank(n, pct)
}

// rank is the 1-based nearest-rank index of the pct-th percentile of n
// samples.
func rank(n, pct int) int {
	r := (pct*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// minOpsFor is the smallest sample count whose pct-th percentile has
// minTail samples beyond it.
func minOpsFor(pct int) int {
	n := 1
	for beyond(n, pct) < minTail {
		n++
	}
	return n
}

// percentile returns the pct-th percentile of xs by nearest rank. xs
// need not be sorted; it is not modified.
func percentile(xs []float64, pct int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), pct)-1]
}

// median is the 50th percentile by interpolation between the middle
// pair, the usual reading for a handful of repeated measurements.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// mean is the arithmetic mean, 0 for no samples (a layer the workload
// never entered did no work).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles by the "exclusive"
// method of Python's statistics.quantiles(data, n=4), so the spreads
// the steadiness report prints are the ones a reader recomputes from
// the same values in Python. Fewer than two samples return the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
