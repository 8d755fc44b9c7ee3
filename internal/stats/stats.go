// Package stats provides the descriptive statistics and curve fitting
// used by the experiment harness: means and standard deviations for the
// error bars of Figures 3 and 5, and least-squares fits of a·log₂n + b
// and a·log₂²n + b to compare measured growth against the paper's
// reference curves.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty indicates a statistic was requested over no samples.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator), or 0
// when fewer than two samples are given.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += float64(d * d)
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs with linear
// interpolation between order statistics. It errors on empty input or
// out-of-range q.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

// quantileSorted interpolates the q-quantile of an already-sorted,
// non-empty sample — the shared core of Quantile and Tails.
func quantileSorted(sorted []float64, q float64) float64 {
	pos := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Tail bundles the convergence percentiles the robustness experiments
// report: under faults the mean hides the straggler trials, and the
// paper's O(log n) claim is about the distribution's tail as much as
// its centre. Serialised into scenario reports, so field names are a
// stable JSON surface.
type Tail struct {
	// P50, P95 and P99 are the 0.50/0.95/0.99 quantiles (linearly
	// interpolated, like Quantile).
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Tails computes the p50/p95/p99 percentiles of xs; it errors on an
// empty sample.
func Tails(xs []float64) (Tail, error) {
	if len(xs) == 0 {
		return Tail{}, ErrEmpty
	}
	// One sort for all three quantiles.
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Tail{
		P50: quantileSorted(sorted, 0.5),
		P95: quantileSorted(sorted, 0.95),
		P99: quantileSorted(sorted, 0.99),
	}, nil
}

// Fit is a least-squares fit y ≈ A·f(x) + B.
type Fit struct {
	// A and B are the fitted coefficients.
	A, B float64
	// R2 is the coefficient of determination in [0, 1] (can be negative
	// for fits worse than a constant).
	R2 float64
}

// String renders the fit.
func (f Fit) String() string {
	return fmt.Sprintf("a=%.3f b=%.3f R²=%.4f", f.A, f.B, f.R2)
}

// FitTransformed computes the least-squares fit of y ≈ A·f(x) + B for the
// given basis function f. At least two points with distinct f(x) values
// are required.
func FitTransformed(xs, ys []float64, f func(float64) float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: fit with %d x values but %d y values", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Fit{}, fmt.Errorf("stats: fit needs at least 2 points, got %d", len(xs))
	}
	n := float64(len(xs))
	var su, sy, suu, suy float64
	for i := range xs {
		u := f(xs[i])
		su += u
		sy += ys[i]
		suu += float64(u * u)
		suy += float64(u * ys[i])
	}
	den := float64(n*suu) - float64(su*su)
	if den == 0 {
		return Fit{}, errors.New("stats: degenerate fit (all transformed x equal)")
	}
	a := (float64(n*suy) - float64(su*sy)) / den
	b := (sy - float64(a*su)) / n
	// R² against the mean model.
	ymean := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		pred := float64(a*f(xs[i])) + b
		ssRes += float64((ys[i] - pred) * (ys[i] - pred))
		ssTot += float64((ys[i] - ymean) * (ys[i] - ymean))
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{A: a, B: b, R2: r2}, nil
}

// FitLogN fits y ≈ A·log₂(x) + B — the paper's expected growth for the
// feedback algorithm (Corollary 5; empirically A ≈ 2.5).
func FitLogN(xs, ys []float64) (Fit, error) {
	return FitTransformed(xs, ys, math.Log2)
}

// FitLog2N fits y ≈ A·log₂²(x) + B — the growth of the globally-swept
// schedule (Theorem 1; empirically A ≈ 1).
func FitLog2N(xs, ys []float64) (Fit, error) {
	return FitTransformed(xs, ys, func(x float64) float64 {
		l := math.Log2(x)
		return l * l
	})
}
