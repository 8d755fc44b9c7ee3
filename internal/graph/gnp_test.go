package graph

import (
	"math"
	"slices"
	"testing"

	"beepmis/internal/rng"
)

// gnpReference is the Builder-based G(n,p) generator that the flat GNP
// replaced, kept as the oracle GNP must match row for row and draw for
// draw.
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

// checkGNPAgainstReference builds G(n, p) from seed with gnpReference,
// with GNP, and into s, and fails unless all three match row for row
// and leave their sources in the same state (the same draws were made).
func checkGNPAgainstReference(t *testing.T, n int, p float64, seed uint64, s *Scratch) {
	t.Helper()
	refSrc := rng.New(seed)
	want := gnpReference(n, p, refSrc)
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

// TestGNPMatchesReference pins the flat, sort-free GNP to the generator
// it replaced over both sampling regimes and their boundary, tiny and
// degenerate sizes, and out-of-range probabilities — fresh and through
// one Scratch reused, growing and shrinking, across the whole grid.
func TestGNPMatchesReference(t *testing.T) {
	var s Scratch
	for _, n := range []int{0, 1, 2, 3, 5, 100, 1200, -1, -5} {
		seeds := 40
		if testing.Short() {
			seeds = 8
			if n > 100 {
				seeds = 2
			}
		}
		for _, p := range []float64{0.001, 0.05, 0.099, 0.1, 0.5, 0.9} {
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				checkGNPAgainstReference(t, n, p, seed, &s)
			}
		}
		// Out-of-range probabilities draw nothing, so one seed covers them.
		for _, p := range []float64{0, -0.5, math.Inf(-1), 1, 1.5, math.Inf(1)} {
			checkGNPAgainstReference(t, n, p, 1, &s)
		}
	}
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

// FuzzGNP checks GNP against the replaced Builder-based generator for
// arbitrary (n, p, seed), fresh and through a Scratch that first built
// a different graph, and checks the result validates.
func FuzzGNP(f *testing.F) {
	f.Add(uint16(0), 0.5, uint64(1))
	f.Add(uint16(2), 0.1, uint64(2))
	f.Add(uint16(100), 0.099, uint64(3))
	f.Add(uint16(300), 0.9, uint64(4))
	f.Add(uint16(50), 1e-300, uint64(5))
	f.Add(uint16(7), 1.0, uint64(6))
	f.Fuzz(func(t *testing.T, n uint16, p float64, seed uint64) {
		if n > 300 || math.IsNaN(p) {
			t.Skip()
		}
		var s Scratch
		s.GNP(int(n)/2+7, 0.3, rng.New(seed+1)).Matrix()
		checkGNPAgainstReference(t, int(n), p, seed, &s)
		if err := GNP(int(n), p, rng.New(seed)).Validate(); err != nil {
			t.Fatalf("G(%d, %v) seed %d: %v", n, p, seed, err)
		}
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
