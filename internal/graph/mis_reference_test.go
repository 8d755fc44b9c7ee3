package graph

import (
	"fmt"
	"testing"

	"beepmis/internal/rng"
)

// The vertex-by-vertex scans VerifyMIS and IsIndependent replaced,
// kept as the reference the one-push forms must match in verdict and
// error text.

func firstDependentEdgeScan(g *Graph, set []bool) [2]int {
	for v := 0; v < g.N(); v++ {
		if !set[v] {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if int(w) > v && set[w] {
				return [2]int{v, int(w)}
			}
		}
	}
	return [2]int{-1, -1}
}

func isIndependentScan(g *Graph, set []bool) bool {
	return firstDependentEdgeScan(g, set) == [2]int{-1, -1}
}

func verifyMISScan(g *Graph, set []bool) error {
	if len(set) != g.N() {
		return fmt.Errorf("graph: set length %d does not match n=%d", len(set), g.N())
	}
	if e := firstDependentEdgeScan(g, set); e != [2]int{-1, -1} {
		return fmt.Errorf("%w: edge {%d,%d} inside set", ErrNotIndependent, e[0], e[1])
	}
	for v := 0; v < g.N(); v++ {
		if set[v] {
			continue
		}
		dominated := false
		for _, w := range g.Neighbors(v) {
			if set[w] {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("%w: vertex %d has no neighbour in the set", ErrNotMaximal, v)
		}
	}
	return nil
}

// assertMatchesScan fails unless VerifyMIS and IsIndependent give the
// scans' verdicts, with identical error text.
func assertMatchesScan(t *testing.T, g *Graph, set []bool) {
	t.Helper()
	got, want := VerifyMIS(g, set), verifyMISScan(g, set)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("VerifyMIS = %v, scan = %v (%v)", got, want, g)
	}
	if len(set) >= g.N() {
		if got, want := IsIndependent(g, set), isIndependentScan(g, set); got != want {
			t.Fatalf("IsIndependent = %v, scan = %v (%v)", got, want, g)
		}
	}
}

// greedyMIS returns the lexicographically first maximal independent set
// of g.
func greedyMIS(g *Graph) []bool {
	set := make([]bool, g.N())
	for v := range set {
		set[v] = true
		for _, w := range g.Neighbors(v) {
			if set[w] {
				set[v] = false
				break
			}
		}
	}
	return set
}

func TestVerifyMISMatchesScan(t *testing.T) {
	flip := func(set []bool, vs ...int) []bool {
		out := append([]bool(nil), set...)
		for _, v := range vs {
			out[v] = !out[v]
		}
		return out
	}
	fill := func(n int, in bool) []bool {
		set := make([]bool, n)
		for v := range set {
			set[v] = in
		}
		return set
	}
	path := Path(100)
	pathMIS := greedyMIS(path)
	gnp := GNP(1000, 0.01, rng.New(3))
	gnpMIS := greedyMIS(gnp)
	// Vertex 0 has two larger member neighbours and 3 a third: the
	// witness must be the lowest edge, {0, 5}.
	fan := NewBuilder(7)
	for _, e := range [][2]int{{0, 5}, {0, 6}, {3, 5}, {1, 2}} {
		if err := fan.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Isolated vertices around one edge, n = 70.
	iso := NewBuilder(70)
	if err := iso.AddEdge(64, 66); err != nil {
		t.Fatal(err)
	}
	isoG := iso.Build()
	isoMIS := greedyMIS(isoG)
	for _, tc := range []struct {
		name string
		g    *Graph
		set  []bool
	}{
		{"n=0", Empty(0), nil},
		{"n=0/zero-graph", &Graph{}, []bool{}},
		{"length-mismatch", path, make([]bool, 99)},
		{"path-100/greedy", path, pathMIS},
		{"path-100/all-in", path, fill(100, true)},
		{"path-100/all-out", path, fill(100, false)},
		{"path-100/one-dependent-edge", path, flip(pathMIS, 99)},
		{"path-100/one-uncovered", path, flip(pathMIS, 98)},
		{"isolated-70/all-in", Empty(70), fill(70, true)},
		{"isolated-70/all-out", Empty(70), fill(70, false)},
		{"isolated-70/one-out", Empty(70), flip(fill(70, true), 69)},
		{"isolated-70/edge/greedy", isoG, isoMIS},
		{"isolated-70/edge/dependent", isoG, flip(isoMIS, 66)},
		{"isolated-70/edge/uncovered", isoG, flip(isoMIS, 64)},
		{"fan/lowest-edge", fan.Build(), []bool{true, false, false, true, false, true, true}},
		{"gnp-1000/greedy", gnp, gnpMIS},
		{"gnp-1000/all-in", gnp, fill(1000, true)},
		{"gnp-1000/all-out", gnp, fill(1000, false)},
		{"gnp-1000/dependent", gnp, flip(gnpMIS, 999, 500)},
		{"gnp-1000/uncovered", gnp, flip(gnpMIS, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) { assertMatchesScan(t, tc.g, tc.set) })
	}
}

// FuzzVerifyMIS holds the one-push VerifyMIS and IsIndependent to the
// scans on fuzzer-built graphs of up to 255 vertices (word tails of
// every length) and sets that start empty or at the greedy MIS and
// flip fuzzer-chosen vertices — so single dependent edges and single
// uncovered vertices come up as often as gross violations.
func FuzzVerifyMIS(f *testing.F) {
	f.Add(uint8(0), []byte{}, []byte{}, false)
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 3, 3, 4}, []byte{}, true)
	f.Add(uint8(70), []byte{64, 66, 1, 2}, []byte{66}, true)
	f.Add(uint8(65), []byte{0, 64, 64, 1, 33, 32}, []byte{0, 64}, false)
	f.Add(uint8(200), []byte{10, 190, 190, 11, 128, 127, 0, 199}, []byte{5}, true)
	f.Fuzz(func(t *testing.T, size uint8, edges, flips []byte, greedy bool) {
		n := int(size)
		b := NewBuilder(n)
		for i := 0; n > 0 && i+1 < len(edges); i += 2 {
			if u, v := int(edges[i])%n, int(edges[i+1])%n; u != v {
				if err := b.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		g := b.Build()
		set := make([]bool, n)
		if greedy {
			set = greedyMIS(g)
		}
		for _, x := range flips {
			if n > 0 {
				set[int(x)%n] = !set[int(x)%n]
			}
		}
		assertMatchesScan(t, g, set)
	})
}
