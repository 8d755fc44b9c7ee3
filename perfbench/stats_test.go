package main

import (
	"math"
	"testing"
)

func TestP95NeedsTenSamplesBeyond(t *testing.T) {
	if got := beyond(199, 95); got != 9 {
		t.Errorf("beyond(199, 95) = %d, want 9", got)
	}
	if got := beyond(200, 95); got != 10 {
		t.Errorf("beyond(200, 95) = %d, want 10", got)
	}
	if got := minOpsFor(95); got != 200 {
		t.Errorf("minOpsFor(95) = %d, want 200", got)
	}
	if got := minOpsFor(50); got != 20 {
		t.Errorf("minOpsFor(50) = %d, want 20", got)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: percentile must sort
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (10 samples beyond)", got)
	}
	if xs[0] != 200 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{5, math.Inf(1), 1}, 50); got != 5 {
		t.Errorf("p50 with one failed op = %v, want 5", got)
	}
}

// The expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{4, 4, 4, 4, 4, 4, 4, 4, 5, 5}, 4, 4.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{3, 1, 4, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
