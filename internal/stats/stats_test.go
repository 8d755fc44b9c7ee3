package stats

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"beepmis/internal/rng"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("mean = %v", got)
	}
	if got := Mean([]float64{-5}); got != -5 {
		t.Fatalf("mean = %v", got)
	}
}

func TestVarianceStdDev(t *testing.T) {
	if Variance([]float64{7}) != 0 {
		t.Fatal("variance of singleton should be 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 = 32/7.
	if got := Variance(xs); !almost(got, 32.0/7, 1e-12) {
		t.Fatalf("variance = %v", got)
	}
	if got := StdDev(xs); !almost(got, math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("stddev = %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	} {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Fatal("empty quantile must error")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("q>1 accepted")
	}
	// Quantile must not mutate its input.
	if xs[0] != 4 {
		t.Fatal("Quantile sorted caller's slice")
	}
}

// An odd-length sample's median (its 0.5-quantile) is its middle order
// statistic.
func TestMedianOdd(t *testing.T) {
	got, err := Quantile([]float64{5, 1, 9}, 0.5)
	if err != nil || got != 5 {
		t.Fatalf("median = %v err=%v", got, err)
	}
}

func TestFitLogNExact(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 1024}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5*math.Log2(x) + 1 // the paper's feedback curve shape
	}
	fit, err := FitLogN(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.A, 2.5, 1e-9) || !almost(fit.B, 1, 1e-9) {
		t.Fatalf("fit = %+v", fit)
	}
}

func TestFitLog2NExact(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 256}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		l := math.Log2(x)
		ys[i] = 1.0*l*l - 2
	}
	fit, err := FitLog2N(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.A, 1, 1e-9) || !almost(fit.B, -2, 1e-9) {
		t.Fatalf("fit = %+v", fit)
	}
	if fit.String() == "" {
		t.Fatal("fit should stringify")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitLogN([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := FitLogN([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FitLogN([]float64{3, 3}, []float64{1, 2}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}

func TestFitNoisyRecovery(t *testing.T) {
	// Fit through noisy data and check coefficient recovery.
	src := rng.New(5)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		x := float64(100 + i*10)
		xs[i] = x
		noise := (src.Float64() - 0.5) * 2
		ys[i] = 3*math.Log2(x) - 4 + noise
	}
	fit, err := FitLogN(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.A, 3, 0.2) {
		t.Fatalf("fit.A = %v, want ~3", fit.A)
	}
	if fit.R2 < 0.8 {
		t.Fatalf("R² = %v too low for mild noise", fit.R2)
	}
}

func TestFitConstantDataPerfectR2(t *testing.T) {
	fit, err := FitLogN([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	// ssTot == 0: R² defined as 1 (perfect fit by the constant model).
	if fit.R2 != 1 || !almost(fit.A, 0, 1e-12) || !almost(fit.B, 5, 1e-12) {
		t.Fatalf("fit = %+v", fit)
	}
}

// Property: mean lies within [min, max]; variance is non-negative.
func TestSummaryProperties(t *testing.T) {
	src := rng.New(6)
	f := func(sizeSeed uint8) bool {
		n := int(sizeSeed%50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = src.Float64()*200 - 100
		}
		lo, hi := slices.Min(xs), slices.Max(xs)
		mean := Mean(xs)
		return mean >= lo-1e-9 && mean <= hi+1e-9 && Variance(xs) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTails(t *testing.T) {
	if _, err := Tails(nil); err == nil {
		t.Fatal("empty sample accepted")
	}
	one, err := Tails([]float64{7})
	if err != nil || one != (Tail{P50: 7, P95: 7, P99: 7}) {
		t.Fatalf("single sample: %+v, %v", one, err)
	}
	// 1..100: quantiles interpolate over order statistics, matching
	// Quantile exactly.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // reversed: Tails must sort
	}
	tail, err := Tails(xs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    float64
		got  float64
		name string
	}{
		{0.5, tail.P50, "p50"},
		{0.95, tail.P95, "p95"},
		{0.99, tail.P99, "p99"},
	} {
		want, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if tc.got != want {
			t.Errorf("%s = %v, want Quantile's %v", tc.name, tc.got, want)
		}
	}
	if tail.P50 != 50.5 || tail.P99 <= tail.P95 || tail.P95 <= tail.P50 {
		t.Errorf("implausible tails %+v", tail)
	}
}
