package apps

import (
	"errors"
	"testing"
	"testing/quick"

	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

func TestColorGraphProper(t *testing.T) {
	src := rng.New(1)
	graphs := map[string]*graph.Graph{
		"gnp":      graph.GNP(100, 0.3, src),
		"complete": graph.Complete(20),
		"grid":     graph.Grid(8, 8),
		"star":     graph.Star(25),
		"cycle":    graph.Cycle(15),
		"empty":    graph.Empty(10),
		"zero":     graph.Empty(0),
	}
	for name, g := range graphs {
		res, err := ColorGraph(g, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := VerifyColoring(g, res.Colors); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() > 0 && res.NumColors > g.MaxDegree()+1 {
			t.Fatalf("%s: %d colors > Δ+1 = %d", name, res.NumColors, g.MaxDegree()+1)
		}
	}
}

func TestColorCompleteGraphUsesNColors(t *testing.T) {
	g := graph.Complete(12)
	res, err := ColorGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 12 {
		t.Fatalf("K12 colored with %d colors, want 12", res.NumColors)
	}
}

func TestColorBipartiteFewColors(t *testing.T) {
	// Complete bipartite graphs are 2-chromatic; iterated MIS is not
	// optimal but must stay well under Δ+1 here because each side is one
	// big independent set.
	g := graph.Bipartite(20, 20, 1, rng.New(3))
	res, err := ColorGraph(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyColoring(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 2 {
		t.Fatalf("complete bipartite colored with %d colors, want 2 (each MIS is one side)", res.NumColors)
	}
}

func TestColorGraphDeterminism(t *testing.T) {
	g := graph.GNP(60, 0.4, rng.New(5))
	a, err := ColorGraph(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ColorGraph(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatal("coloring not deterministic for fixed seed")
		}
	}
}

func TestVerifyColoringErrors(t *testing.T) {
	g := graph.Path(3)
	if err := VerifyColoring(g, []int{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := VerifyColoring(g, []int{0, -1, 0}); err == nil {
		t.Fatal("uncolored vertex accepted")
	}
	err := VerifyColoring(g, []int{0, 0, 1})
	if !errors.Is(err, ErrImproperColoring) {
		t.Fatalf("err = %v, want ErrImproperColoring", err)
	}
	if err := VerifyColoring(g, []int{0, 1, 0}); err != nil {
		t.Fatalf("proper coloring rejected: %v", err)
	}
}

func TestColoringProperty(t *testing.T) {
	src := rng.New(6)
	f := func(nSeed, pSeed, seed uint8) bool {
		n := int(nSeed%40) + 1
		p := float64(pSeed%10) / 10
		g := graph.GNP(n, p, src)
		res, err := ColorGraph(g, uint64(seed))
		if err != nil {
			return false
		}
		return VerifyColoring(g, res.Colors) == nil && res.NumColors <= g.MaxDegree()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaximalMatching(t *testing.T) {
	src := rng.New(7)
	graphs := map[string]*graph.Graph{
		"gnp":   graph.GNP(60, 0.2, src),
		"grid":  graph.Grid(6, 6),
		"path":  graph.Path(9),
		"star":  graph.Star(12),
		"empty": graph.Empty(5),
	}
	for name, g := range graphs {
		res, err := MaximalMatching(g, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !graph.IsMaximalMatching(g, res.Edges, res.Matched) {
			t.Fatalf("%s: matching not maximal", name)
		}
	}
}

func TestMaximalMatchingStarSizeOne(t *testing.T) {
	// Every edge of a star shares the hub, so any maximal matching has
	// exactly one edge.
	res, err := MaximalMatching(graph.Star(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 1 {
		t.Fatalf("star matching size %d, want 1", res.Size())
	}
}

func TestMaximalMatchingPerfectOnEvenPath(t *testing.T) {
	// P4 has a perfect matching of size 2, and the only maximal
	// matchings have size 1 (middle edge) or 2. Check size within range.
	res, err := MaximalMatching(graph.Path(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() < 1 || res.Size() > 2 {
		t.Fatalf("P4 matching size %d", res.Size())
	}
}
