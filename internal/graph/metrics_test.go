package graph

import (
	"testing"
	"testing/quick"

	"beepmis/internal/rng"
)

func TestLineGraph(t *testing.T) {
	// Path 0-1-2: two edges sharing vertex 1 → L(g) = single edge.
	lg, edges := LineGraph(Path(3))
	if lg.N() != 2 || lg.M() != 1 {
		t.Fatalf("L(P3) = %v", lg)
	}
	if len(edges) != 2 {
		t.Fatalf("edges = %v", edges)
	}
	// Triangle: L(K3) = K3.
	lg, _ = LineGraph(Complete(3))
	if lg.N() != 3 || lg.M() != 3 {
		t.Fatalf("L(K3) = %v", lg)
	}
	// Star K_{1,4}: all edges share the hub → L = K4.
	lg, _ = LineGraph(Star(5))
	if lg.N() != 4 || lg.M() != 6 {
		t.Fatalf("L(K_{1,4}) = %v", lg)
	}
	// Edgeless graph.
	lg, edges = LineGraph(Empty(3))
	if lg.N() != 0 || len(edges) != 0 {
		t.Fatalf("L(empty) = %v", lg)
	}
}

func TestLineGraphDegreeIdentity(t *testing.T) {
	// deg_L(e={u,v}) = deg(u) + deg(v) - 2.
	g := GNP(30, 0.2, rng.New(1))
	lg, edges := LineGraph(g)
	for i, e := range edges {
		want := g.Degree(e[0]) + g.Degree(e[1]) - 2
		if lg.Degree(i) != want {
			t.Fatalf("edge %v: line degree %d, want %d", e, lg.Degree(i), want)
		}
	}
	if err := lg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIsMaximalMatching(t *testing.T) {
	g := Path(4) // edges: {0,1},{1,2},{2,3}
	edges := g.Edges()
	// {0,1} and {2,3} is a maximal (indeed perfect) matching.
	if !IsMaximalMatching(g, edges, []bool{true, false, true}) {
		t.Fatal("valid matching rejected")
	}
	// {1,2} alone is maximal.
	if !IsMaximalMatching(g, edges, []bool{false, true, false}) {
		t.Fatal("valid matching rejected")
	}
	// {0,1} alone is NOT maximal ({2,3} could be added).
	if IsMaximalMatching(g, edges, []bool{true, false, false}) {
		t.Fatal("non-maximal matching accepted")
	}
	// {0,1} and {1,2} share vertex 1.
	if IsMaximalMatching(g, edges, []bool{true, true, false}) {
		t.Fatal("conflicting matching accepted")
	}
	// Length mismatch.
	if IsMaximalMatching(g, edges, []bool{true}) {
		t.Fatal("length mismatch accepted")
	}
}

func TestHypercube(t *testing.T) {
	g, err := Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4 = %v", g)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("Q4 vertex %d degree %d", v, g.Degree(v))
		}
	}
	// Q4's vertices are the 4-bit words, adjacent iff they differ in
	// exactly one bit.
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if x := u ^ v; g.HasEdge(u, v) != (x != 0 && x&(x-1) == 0) {
				t.Fatalf("Q4 edge {%d, %d} = %v, want it iff %04b has one bit set", u, v, g.HasEdge(u, v), x)
			}
		}
	}
	if _, err := Hypercube(-1); err == nil {
		t.Fatal("negative dimension accepted")
	}
	if _, err := Hypercube(31); err == nil {
		t.Fatal("oversized dimension accepted")
	}
	g0, err := Hypercube(0)
	if err != nil || g0.N() != 1 {
		t.Fatalf("Q0 = %v, %v", g0, err)
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g := CompleteBinaryTree(7)
	if g.M() != 6 {
		t.Fatalf("M = %d", g.M())
	}
	if !IsConnected(g) {
		t.Fatal("tree must be connected")
	}
	if g.Degree(0) != 2 || g.Degree(1) != 3 {
		t.Fatalf("degrees: root %d, internal %d", g.Degree(0), g.Degree(1))
	}
}

func TestRandomRegular(t *testing.T) {
	src := rng.New(5)
	g, err := RandomRegular(50, 4, src)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("vertex %d degree %d, want 4", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// d = 0 shortcut.
	g0, err := RandomRegular(5, 0, src)
	if err != nil || g0.M() != 0 {
		t.Fatalf("0-regular: %v %v", g0, err)
	}
	// Invalid parameters.
	if _, err := RandomRegular(5, 3, src); err == nil {
		t.Fatal("odd d·n accepted")
	}
	if _, err := RandomRegular(4, 4, src); err == nil {
		t.Fatal("d >= n accepted")
	}
	if _, err := RandomRegular(4, -1, src); err == nil {
		t.Fatal("negative d accepted")
	}
}

func TestRandomRegularProperty(t *testing.T) {
	src := rng.New(6)
	f := func(seed uint8) bool {
		n := 20 + int(seed%20)*2
		g, err := RandomRegular(n, 3, src)
		if n%2 != 0 {
			n++ // keep d·n even
			g, err = RandomRegular(n, 3, src)
		}
		if err != nil {
			return false
		}
		return g.Validate() == nil && g.MinDegree() == 3 && g.MaxDegree() == 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(5, 7)
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() != 4+7 {
		t.Fatalf("M = %d", g.M())
	}
	if !IsConnected(g) {
		t.Fatal("caterpillar must be connected")
	}
	// Degenerate spine.
	g = Caterpillar(0, 3)
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("star-ish caterpillar = %v", g)
	}
}
