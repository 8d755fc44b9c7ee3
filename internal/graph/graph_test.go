package graph

import (
	"errors"
	"testing"
	"testing/quick"

	"beepmis/internal/rng"
)

func TestEmptyGraph(t *testing.T) {
	g := Empty(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("Empty(5) = %v", g)
	}
	if g.MaxDegree() != 0 || g.MinDegree() != 0 || g.AvgDegree() != 0 {
		t.Fatal("empty graph degrees should be 0")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroVertexGraph(t *testing.T) {
	var zero Graph
	for name, g := range map[string]*Graph{"Empty(0)": Empty(0), "zero value": &zero} {
		if g.N() != 0 || g.M() != 0 {
			t.Fatalf("%s = %v", name, g)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.AvgDegree() != 0 || g.MaxDegree() != 0 || g.MinDegree() != 0 || len(g.Edges()) != 0 {
			t.Fatalf("%s: degree statistics or edges of an empty graph are not zero", name)
		}
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(3)
	for _, e := range [][2]int{{-1, 0}, {0, 3}, {5, 1}} {
		err := b.AddEdge(e[0], e[1])
		if !errors.Is(err, ErrVertexRange) {
			t.Fatalf("AddEdge(%d,%d) err = %v, want ErrVertexRange", e[0], e[1], err)
		}
	}
}

func TestBuilderDedupesEdges(t *testing.T) {
	b := NewBuilder(3)
	for i := 0; i < 5; i++ {
		if err := b.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	// A non-duplicated edge alongside the duplicates: M() must count
	// distinct edges, not insertions.
	if err := b.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M = %d after duplicate inserts of {0,1} plus {1,2}, want 2", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHasEdge(t *testing.T) {
	b := NewBuilder(4)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 2)
	g := b.Build()
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {1, 2, true}, {0, 2, false},
		{3, 0, false}, {-1, 0, false}, {0, 99, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := GNP(30, 0.3, rng.New(1))
	edges := g.Edges()
	if len(edges) != g.M() {
		t.Fatalf("Edges() returned %d, M() = %d", len(edges), g.M())
	}
	b := NewBuilder(g.N())
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g2 := b.Build()
	if g2.M() != g.M() {
		t.Fatalf("rebuilt graph has %d edges, want %d", g2.M(), g.M())
	}
	for _, e := range edges {
		if !g2.HasEdge(e[0], e[1]) {
			t.Fatalf("rebuilt graph missing edge %v", e)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Path(4)
	c := g.Clone()
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatal("clone differs in size")
	}
	// Mutating the clone's internals must not affect the original.
	c.cols[0] = 3
	if g.cols[0] == 3 {
		t.Fatal("clone shares storage with original")
	}
}

func TestDegreeStats(t *testing.T) {
	g := Star(5) // hub 0 degree 4, leaves degree 1
	if g.MaxDegree() != 4 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if g.MinDegree() != 1 {
		t.Fatalf("MinDegree = %d", g.MinDegree())
	}
	if got := g.AvgDegree(); got != 8.0/5.0 {
		t.Fatalf("AvgDegree = %v", got)
	}
}

// Property: every generated G(n,p) validates and has plausible edge count.
func TestGNPProperty(t *testing.T) {
	src := rng.New(77)
	f := func(nSeed uint8, pSeed uint8) bool {
		n := int(nSeed%64) + 2
		p := float64(pSeed%11) / 10
		g := GNP(n, p, src)
		if g.N() != n {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGNPEdgeDensity(t *testing.T) {
	src := rng.New(5)
	n := 200
	g := GNP(n, 0.5, src)
	want := float64(n*(n-1)) / 4 // p * n(n-1)/2
	got := float64(g.M())
	if got < want*0.93 || got > want*1.07 {
		t.Fatalf("G(%d,0.5) has %v edges, want ~%v", n, got, want)
	}
}

func TestGNPSparseDensity(t *testing.T) {
	// Exercises the Batagelj–Brandes skipping path (p < 0.1).
	src := rng.New(6)
	n, p := 2000, 0.01
	g := GNP(n, p, src)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := p * float64(n*(n-1)) / 2
	got := float64(g.M())
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("G(%d,%v) has %v edges, want ~%v", n, p, got, want)
	}
}

func TestGNPExtremes(t *testing.T) {
	src := rng.New(7)
	if g := GNP(10, 0, src); g.M() != 0 {
		t.Fatal("G(n,0) must have no edges")
	}
	if g := GNP(10, 1, src); g.M() != 45 {
		t.Fatalf("G(10,1) has %d edges, want 45", g.M())
	}
}

func TestComplete(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 10} {
		g := Complete(n)
		if g.M() != n*(n-1)/2 {
			t.Fatalf("K_%d has %d edges", n, g.M())
		}
		if n > 1 && g.MinDegree() != n-1 {
			t.Fatalf("K_%d min degree %d", n, g.MinDegree())
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("Grid(3,4).N = %d", g.N())
	}
	// Edges: horizontal 3*(4-1)=9, vertical (3-1)*4=8.
	if g.M() != 17 {
		t.Fatalf("Grid(3,4).M = %d, want 17", g.M())
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("grid max degree %d", g.MaxDegree())
	}
	if !IsConnected(g) {
		t.Fatal("grid must be connected")
	}
}

func TestTorusRegular(t *testing.T) {
	g := Torus(4, 5)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus vertex %d degree %d, want 4", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPathCycleStar(t *testing.T) {
	if g := Path(6); g.M() != 5 || g.MaxDegree() != 2 {
		t.Fatalf("Path(6) = %v", g)
	}
	if g := Cycle(6); g.M() != 6 || g.MinDegree() != 2 || g.MaxDegree() != 2 {
		t.Fatalf("Cycle(6) = %v", g)
	}
	if g := Cycle(2); g.M() != 1 {
		t.Fatalf("Cycle(2) = %v", g)
	}
	if g := Star(7); g.M() != 6 || g.Degree(0) != 6 {
		t.Fatalf("Star(7) = %v", g)
	}
}

func TestRandomTree(t *testing.T) {
	g := RandomTree(50, rng.New(8))
	if g.M() != 49 {
		t.Fatalf("tree on 50 vertices has %d edges", g.M())
	}
	if !IsConnected(g) {
		t.Fatal("tree must be connected")
	}
}

func TestCliqueUnion(t *testing.T) {
	g := CliqueUnion([]int{3, 1, 4})
	if g.N() != 8 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() != 3+0+6 {
		t.Fatalf("M = %d", g.M())
	}
	_, comps := ConnectedComponents(g)
	if comps != 3 {
		t.Fatalf("components = %d, want 3", comps)
	}
}

func TestCliqueFamilyStructure(t *testing.T) {
	g := CliqueFamily(1000) // k = 10
	k := 10
	wantN := 0
	for d := 1; d <= k; d++ {
		wantN += k * d
	}
	if g.N() != wantN {
		t.Fatalf("CliqueFamily(1000).N = %d, want %d", g.N(), wantN)
	}
	_, comps := ConnectedComponents(g)
	if comps != k*k {
		t.Fatalf("components = %d, want %d", comps, k*k)
	}
	if g.MaxDegree() != k-1 {
		t.Fatalf("max degree %d, want %d", g.MaxDegree(), k-1)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCliqueFamilyTiny(t *testing.T) {
	g := CliqueFamily(1)
	if g.N() != 1 || g.M() != 0 {
		t.Fatalf("CliqueFamily(1) = %v", g)
	}
}

func TestUnitDisk(t *testing.T) {
	src := rng.New(9)
	g, xs, ys := UnitDiskPoints(300, 0.12, src)
	if g.N() != 300 || len(xs) != 300 || len(ys) != 300 {
		t.Fatal("size mismatch")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every edge must respect the radius; spot-check symmetry with a
	// brute-force reconstruction.
	r2 := 0.12 * 0.12
	for _, e := range g.Edges() {
		dx, dy := xs[e[0]]-xs[e[1]], ys[e[0]]-ys[e[1]]
		if dx*dx+dy*dy > r2+1e-12 {
			t.Fatalf("edge %v exceeds radius", e)
		}
	}
	brute := 0
	for i := 0; i < 300; i++ {
		for j := i + 1; j < 300; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx*dx+dy*dy <= r2 {
				brute++
			}
		}
	}
	if brute != g.M() {
		t.Fatalf("bucketed construction found %d edges, brute force %d", g.M(), brute)
	}
}

func TestUnitDiskZeroRadius(t *testing.T) {
	g := UnitDisk(50, 0, rng.New(10))
	if g.M() != 0 {
		t.Fatal("r=0 disk graph must be empty")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g, err := BarabasiAlbert(200, 3, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 200 {
		t.Fatalf("N = %d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !IsConnected(g) {
		t.Fatal("BA graph should be connected")
	}
	// Each of the n-m-1 later vertices adds exactly m distinct edges.
	wantM := 3*2/2*1 + 3 // K_4 has 6 edges... compute directly below
	wantM = 6 + (200-4)*3
	if g.M() != wantM {
		t.Fatalf("M = %d, want %d", g.M(), wantM)
	}
	if _, err := BarabasiAlbert(10, 0, rng.New(1)); err == nil {
		t.Fatal("m=0 must error")
	}
}

func TestWattsStrogatz(t *testing.T) {
	g, err := WattsStrogatz(100, 4, 0.1, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 {
		t.Fatalf("N = %d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rewiring preserves edge count.
	if g.M() != 200 {
		t.Fatalf("M = %d, want 200", g.M())
	}
	if _, err := WattsStrogatz(10, 3, 0.1, rng.New(1)); err == nil {
		t.Fatal("odd k must error")
	}
}

func TestBipartite(t *testing.T) {
	g := Bipartite(10, 15, 1, rng.New(13))
	if g.M() != 150 {
		t.Fatalf("complete bipartite M = %d", g.M())
	}
	// No edges within a side.
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			if g.HasEdge(u, v) {
				t.Fatalf("edge inside left side: {%d,%d}", u, v)
			}
		}
	}
}
