package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"beepmis/internal/rng"
)

// gnpReference is the sampler GNP used before its draws became word
// parallel, in the Builder form it replaced: one Float64 per pair from
// p = 0.1 up, geometric skipping with math.Log below. The distribution
// tests run it beside GNP, since both sample G(n, p).
func gnpReference(n int, p float64, src *rng.Source) *Graph {
	b := NewBuilder(n)
	switch {
	case p <= 0:
		return b.Build()
	case p >= 1:
		return Complete(n)
	}
	if p >= 0.1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if src.Bernoulli(p) {
					_ = b.AddEdge(u, v)
				}
			}
		}
		return b.Build()
	}
	lq := math.Log(1 - p)
	u, v := 1, -1
	for u < n {
		r := src.Float64()
		v += 1 + int(math.Log(1-r)/lq)
		for v >= u && u < n {
			v -= u
			u++
		}
		if u < n {
			_ = b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// gnpLaneReference restates GNP's draws pair by pair, in Builder form:
// below gnpPlanesFrom the skip walk with its clamp, and from there each
// pair's 53-bit uniform U against T = ⌈p·2⁵³⌉, compared bit by bit from
// the top, bit k of U being the pair's lane bit in the k-th plane word
// of its 64-pair word. A plane word is drawn when the first lane needs
// it, and a lane needs no plane past T's last set bit (below it U ≥ T
// whatever the bits), so a word draws as many planes as the early exit.
func gnpLaneReference(n int, p float64, src *rng.Source) *Graph {
	b := NewBuilder(max(n, 0))
	switch {
	case n < 2 || !(p > 0):
		return b.Build()
	case p >= 1:
		return Complete(n)
	case p < gnpPlanesFrom:
		lambda := -rng.Log(1 - p)
		u, v := 1, -1
		for u < n {
			gap := src.ExpFloat64() / lambda
			if math.IsNaN(gap) || gap < 0 || gap >= float64(n)*float64(n) {
				return b.Build() // past the last pair
			}
			v += 1 + int(gap)
			for v >= u && u < n {
				v -= u
				u++
			}
			if u < n {
				_ = b.AddEdge(u, v)
			}
		}
		return b.Build()
	}
	const planes = 53
	T := uint64(math.Ceil(p * (1 << planes)))
	last := planes - bits.TrailingZeros64(T) // planes up to T's last set bit
	for u := 0; u < n; u++ {
		for first := u + 1; first < n; first += 64 {
			var words [planes]uint64
			drawn := 0
			for i := range min(n-first, 64) {
				for k := range last {
					if k == drawn {
						words[k] = src.Uint64()
						drawn++
					}
					bit, tbit := words[k]>>i&1, T>>(planes-1-k)&1
					if bit != tbit {
						if tbit == 1 {
							_ = b.AddEdge(u, first+i)
						}
						break
					}
				}
			}
		}
	}
	return b.Build()
}

// checkGNP builds G(n, p) from seed with gnpLaneReference, with GNP, and
// into s, and fails unless all three match row for row and leave their
// sources in the same state (the same draws were made).
func checkGNP(t *testing.T, n int, p float64, seed uint64, s *Scratch) {
	t.Helper()
	refSrc := rng.New(seed)
	want := gnpLaneReference(n, p, refSrc)
	next := refSrc.Uint64()
	for name, build := range map[string]func(int, float64, *rng.Source) *Graph{"fresh": GNP, "scratch": s.GNP} {
		src := rng.New(seed)
		g := build(n, p, src)
		if g.N() != want.N() || g.M() != want.M() {
			t.Fatalf("%s G(%d, %v) seed %d: n=%d m=%d, reference n=%d m=%d", name, n, p, seed, g.N(), g.M(), want.N(), want.M())
		}
		for v := 0; v < g.N(); v++ {
			if got, ref := g.Neighbors(v), want.Neighbors(v); !slices.Equal(got, ref) {
				t.Fatalf("%s G(%d, %v) seed %d: row %d = %v, reference %v", name, n, p, seed, v, got, ref)
			}
		}
		if src.Uint64() != next {
			t.Fatalf("%s G(%d, %v) seed %d: consumed different draws than the reference", name, n, p, seed)
		}
	}
}

// checkGNPValid fails unless G(n, p) from seed validates.
func checkGNPValid(t *testing.T, n int, p float64, seed uint64) {
	t.Helper()
	if err := GNP(n, p, rng.New(seed)).Validate(); err != nil {
		t.Fatalf("G(%d, %v) seed %d: %v", n, p, seed, err)
	}
}

// TestGNPMatchesReference pins GNP, fresh and through one Scratch
// reused, growing and shrinking, to its pair-by-pair restatement over
// both sampling regimes and their boundary, a p too small for 1 − p to
// differ from 1, tiny and degenerate sizes, and out-of-range
// probabilities, and validates the first seed's graph of each.
func TestGNPMatchesReference(t *testing.T) {
	var s Scratch
	below := math.Nextafter(gnpPlanesFrom, 0)
	for _, n := range []int{0, 1, 2, 3, 5, 100, 1200, -1, -5} {
		seeds := 40
		if testing.Short() {
			seeds = 8
			if n > 100 {
				seeds = 2
			}
		}
		for _, p := range []float64{1e-300, 0.001, 0.05, 0.099, below, gnpPlanesFrom, 0.5, 0.9} {
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				checkGNP(t, n, p, seed, &s)
			}
			checkGNPValid(t, n, p, 1)
		}
		// Out-of-range probabilities draw nothing, so one seed covers them.
		for _, p := range []float64{0, -0.5, math.Inf(-1), 1, 1.5, math.Inf(1)} {
			checkGNP(t, n, p, 1, &s)
			checkGNPValid(t, n, p, 1)
		}
	}
}

// TestGNPTinyP pins the edge count of G(n, p) for p below 2⁻⁵³, where
// 1 − p rounds to 1: none. The old skip loop divided by ln(1 − p) = 0,
// and its int conversion of the infinite skip wrapped on amd64, so about
// every second pair became an edge.
func TestGNPTinyP(t *testing.T) {
	var s Scratch
	for _, tc := range []struct {
		n    int
		p    float64
		seed uint64
	}{{3000, 1e-300, 3}, {2000, 1e-17, 5}, {500, math.SmallestNonzeroFloat64, 1}} {
		for name, build := range map[string]func(int, float64, *rng.Source) *Graph{"fresh": GNP, "scratch": s.GNP} {
			if g := build(tc.n, tc.p, rng.New(tc.seed)); g.N() != tc.n || g.M() != 0 {
				t.Errorf("%s G(%d, %v): n=%d m=%d, want m=0", name, tc.n, tc.p, g.N(), g.M())
			}
		}
	}
}

// TestGNPPlaneDraws pins the draws of a G(800, ½) build at one Uint64
// per 64-pair word, each row starting a new word: ½ ends after one
// plane.
func TestGNPPlaneDraws(t *testing.T) {
	const n = 800
	src := rng.New(7)
	want := *src
	words := 0
	for u := range n {
		words += (n - 1 - u + 63) / 64
	}
	for range words {
		want.Uint64()
	}
	GNP(n, 0.5, src)
	if src.Uint64() != want.Uint64() {
		t.Fatalf("G(%d, ½) did not draw exactly one Uint64 per word (%d words)", n, words)
	}
}

// TestGNPDistribution checks that GNP and gnpReference both sample
// G(n, p), on either side of gnpPlanesFrom, from fixed seeds so the
// outcome is deterministic:
//
//   - the edge count over 40 graphs G(400, p) by its z against
//     p·n(n−1)/2 per graph;
//   - the degrees of those graphs by χ² against Binomial(n−1, p), tails
//     pooled to at least 20 expected per bin;
//   - each pair's edge frequency over 20,000 graphs G(8, p), by z and
//     by χ² over the 28 pairs.
func TestGNPDistribution(t *testing.T) {
	samplers := map[string]func(int, float64, *rng.Source) *Graph{"GNP": GNP, "reference": gnpReference}
	for name, build := range samplers {
		for _, p := range []float64{0.003, 0.02, 0.05, math.Nextafter(gnpPlanesFrom, 0), gnpPlanesFrom, 0.3, 0.5, 0.9} {
			t.Run(fmt.Sprintf("%s/p=%v", name, p), func(t *testing.T) {
				const n, graphs = 400, 40
				edges := 0
				degrees := make([]int, n)
				for seed := range uint64(graphs) {
					g := build(n, p, rng.New(seed+1))
					edges += g.M()
					for v := range n {
						degrees[g.Degree(v)]++
					}
				}
				pairs := float64(graphs) * n * (n - 1) / 2
				if z := (float64(edges) - p*pairs) / math.Sqrt(pairs*p*(1-p)); math.Abs(z) > 4 {
					t.Errorf("edge count %d over %d graphs, want %.0f: z = %.2f", edges, graphs, p*pairs, z)
				}
				if chi2, df := binomialChi2(degrees, n-1, p, graphs*n); chi2 > float64(df)+5*math.Sqrt(2*float64(df)) {
					t.Errorf("degree histogram χ² = %.1f at %d degrees of freedom", chi2, df)
				}

				const small, trials = 8, 20000
				var freq [small][small]int
				for seed := range uint64(trials) {
					g := build(small, p, rng.New(seed+1))
					for u := range small {
						for _, v := range g.Neighbors(u) {
							freq[u][v]++
						}
					}
				}
				chi2 := 0.0
				sd := math.Sqrt(trials * p * (1 - p))
				for u := range small {
					for v := u + 1; v < small; v++ {
						z := (float64(freq[u][v]) - trials*p) / sd
						if math.Abs(z) > 4.5 {
							t.Errorf("pair (%d, %d) an edge in %d of %d graphs: z = %.2f", u, v, freq[u][v], trials, z)
						}
						chi2 += z * z
					}
				}
				if df := small * (small - 1) / 2; chi2 > float64(df)+5*math.Sqrt(2*float64(df)) {
					t.Errorf("pair frequencies χ² = %.1f at %d degrees of freedom", chi2, df)
				}
			})
		}
	}
}

// binomialChi2 returns the χ² statistic of the histogram counts (of
// total observations) against Binomial(k, p), with the bins at either
// end pooled until each holds at least 20 expected, and its degrees of
// freedom.
func binomialChi2(counts []int, k int, p float64, total int) (float64, int) {
	lk, _ := math.Lgamma(float64(k + 1))
	chi2, bins := 0.0, 0
	obs, exp, below := 0.0, 0.0, 0.0 // below is P(X ≤ d)
	for d := 0; d <= k; d++ {
		ld, _ := math.Lgamma(float64(d + 1))
		lr, _ := math.Lgamma(float64(k - d + 1))
		pmf := math.Exp(lk - ld - lr + float64(d)*math.Log(p) + float64(k-d)*math.Log1p(-p))
		obs += float64(counts[d])
		exp += float64(total) * pmf
		below += pmf
		if exp >= 20 && float64(total)*(1-below) >= 20 || d == k {
			chi2 += (obs - exp) * (obs - exp) / exp
			bins++
			obs, exp = 0, 0
		}
	}
	return chi2, bins - 1
}

// TestScratchMatrixMatchesFresh checks a scratch-built graph's matrix,
// built into words a larger earlier graph left dirty, against the
// matrix of the same graph built fresh.
func TestScratchMatrixMatchesFresh(t *testing.T) {
	var s Scratch
	s.GNP(300, 0.5, rng.New(1)).Matrix()
	for _, tc := range []struct {
		n int
		p float64
	}{{200, 0.5}, {130, 0.05}, {64, 0.9}, {0, 0.5}} {
		got := s.GNP(tc.n, tc.p, rng.New(2)).Matrix()
		want := NewAdjacencyMatrix(GNP(tc.n, tc.p, rng.New(2)))
		if got.N() != want.N() || got.Words() != want.Words() {
			t.Fatalf("G(%d, %v): matrix shape %dx%d, want %dx%d", tc.n, tc.p, got.N(), got.Words(), want.N(), want.Words())
		}
		for v := 0; v < tc.n; v++ {
			if !slices.Equal(got.Row(v), want.Row(v)) {
				t.Fatalf("G(%d, %v): matrix row %d differs from a fresh build", tc.n, tc.p, v)
			}
		}
	}
}

// TestGNPNaN pins the one defined behaviour for a NaN edge probability:
// n isolated vertices, with nothing drawn from the source.
func TestGNPNaN(t *testing.T) {
	var s Scratch
	for name, build := range map[string]func(int, float64, *rng.Source) *Graph{"fresh": GNP, "scratch": s.GNP} {
		src := rng.New(1)
		g := build(50, math.NaN(), src)
		if g.N() != 50 || g.M() != 0 {
			t.Errorf("%s GNP(50, NaN) = %v, want 50 isolated vertices", name, g)
		}
		if src.Uint64() != rng.New(1).Uint64() {
			t.Errorf("%s GNP(50, NaN) drew from its source", name)
		}
	}
}

// TestScratchBuildAllocs bounds a warm Scratch's allocations per build,
// matrix included: the graph, CSR and matrix headers, whatever the
// graph's size.
func TestScratchBuildAllocs(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{1200, 0.05}, {800, 0.5}} {
		var s Scratch
		src := rng.New(1)
		for range 3 {
			s.GNP(tc.n, tc.p, src).Matrix()
		}
		allocs := testing.AllocsPerRun(20, func() {
			s.GNP(tc.n, tc.p, src).Matrix()
		})
		if allocs > 3 {
			t.Errorf("G(%d, %v) into a warm Scratch: %v allocations per build, want ≤ 3", tc.n, tc.p, allocs)
		}
	}
}

// FuzzGNP checks GNP against its pair-by-pair restatement for
// arbitrary (n, p, seed), fresh and through a Scratch that first built
// a different graph, and checks the result validates.
func FuzzGNP(f *testing.F) {
	f.Add(uint16(0), 0.5, uint64(1))
	f.Add(uint16(2), 0.1, uint64(2))
	f.Add(uint16(100), 0.099, uint64(3))
	f.Add(uint16(300), 0.9, uint64(4))
	f.Add(uint16(50), 1e-300, uint64(5))
	f.Add(uint16(7), 1.0, uint64(6))
	f.Add(uint16(130), gnpPlanesFrom, uint64(7))
	f.Fuzz(func(t *testing.T, n uint16, p float64, seed uint64) {
		if n > 300 || math.IsNaN(p) {
			t.Skip()
		}
		var s Scratch
		s.GNP(int(n)/2+7, 0.3, rng.New(seed+1)).Matrix()
		checkGNP(t, int(n), p, seed, &s)
		checkGNPValid(t, int(n), p, seed)
	})
}

// BenchmarkGNP times one G(n,p) build plus its Matrix(), the per-trial
// work of a scenario unit, fresh and into a warm Scratch.
func BenchmarkGNP(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int
		p    float64
	}{{"n=1200,p=0.05", 1200, 0.05}, {"n=800,p=0.5", 800, 0.5}} {
		b.Run("fresh/"+tc.name, func(b *testing.B) {
			src := rng.New(1)
			b.ReportAllocs()
			for b.Loop() {
				GNP(tc.n, tc.p, src).Matrix()
			}
		})
		b.Run("scratch/"+tc.name, func(b *testing.B) {
			var s Scratch
			src := rng.New(1)
			b.ReportAllocs()
			for b.Loop() {
				s.GNP(tc.n, tc.p, src).Matrix()
			}
		})
	}
}

// BenchmarkGNPRegimes times each sampling regime's half rows alone, on
// either side of gnpPlanesFrom, at a fixed edge count: it is the
// measurement that places the crossover.
func BenchmarkGNPRegimes(b *testing.B) {
	for _, p := range []float64{0.02, 0.05, 0.08, 0.1, 0.12, 0.15, 0.2} {
		n := int(math.Sqrt(2*200_000/p)) + 1 // about 200,000 edges
		for name, rows := range map[string]func([]int32, []int64, int, float64, *rng.Source) []int32{"skip": skipRows, "planes": planeRows} {
			b.Run(fmt.Sprintf("%s/p=%v", name, p), func(b *testing.B) {
				src := rng.New(1)
				hoff := make([]int64, n+1)
				half := make([]int32, 0, 300_000+n)
				for b.Loop() {
					half = rows(half[:0], hoff, n, p, src)
				}
			})
		}
	}
}
