package graph

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"beepmis/internal/rng"
)

func TestDisjointUnion(t *testing.T) {
	g := DisjointUnion(Complete(3), Path(4), Empty(2))
	if g.N() != 9 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() != 3+3+0 {
		t.Fatalf("M = %d", g.M())
	}
	_, comps := ConnectedComponents(g)
	if comps != 4 { // K3, P4, and two isolated vertices
		t.Fatalf("components = %d, want 4", comps)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(3, 4) || g.HasEdge(2, 3) {
		t.Fatal("union edges misplaced")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(5)
	sub, err := InducedSubgraph(g, []int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced K3 = %v", sub)
	}
	if _, err := InducedSubgraph(g, []int{0, 0}); err == nil {
		t.Fatal("duplicate vertices accepted")
	}
	if _, err := InducedSubgraph(g, []int{0, 9}); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("out-of-range err = %v", err)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := DisjointUnion(Cycle(3), Cycle(4))
	comp, count := ConnectedComponents(g)
	if count != 2 {
		t.Fatalf("count = %d", count)
	}
	for v := 0; v < 3; v++ {
		if comp[v] != 0 {
			t.Fatalf("comp[%d] = %d", v, comp[v])
		}
	}
	for v := 3; v < 7; v++ {
		if comp[v] != 1 {
			t.Fatalf("comp[%d] = %d", v, comp[v])
		}
	}
	if !IsConnected(Cycle(5)) || IsConnected(g) {
		t.Fatal("IsConnected wrong")
	}
	if !IsConnected(Empty(0)) {
		t.Fatal("empty graph should count as connected")
	}
}

func TestVerifyMIS(t *testing.T) {
	g := Path(4)
	ok := []bool{true, false, true, false} // vertex 3 is dominated by 2
	if err := VerifyMIS(g, ok); err != nil {
		t.Fatalf("valid MIS rejected: %v", err)
	}
	notInd := []bool{true, true, false, true}
	if err := VerifyMIS(g, notInd); !errors.Is(err, ErrNotIndependent) {
		t.Fatalf("err = %v, want ErrNotIndependent", err)
	}
	notMax := []bool{true, false, false, false}
	if err := VerifyMIS(g, notMax); !errors.Is(err, ErrNotMaximal) {
		t.Fatalf("err = %v, want ErrNotMaximal", err)
	}
	if err := VerifyMIS(g, []bool{true}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestVerifyMISEmptyGraph(t *testing.T) {
	// The empty set is the unique MIS of the empty graph.
	if err := VerifyMIS(Empty(0), nil); err != nil {
		t.Fatal(err)
	}
	// In an edgeless graph, all vertices must be chosen.
	if err := VerifyMIS(Empty(3), []bool{true, true, true}); err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(Empty(3), []bool{true, false, true}); !errors.Is(err, ErrNotMaximal) {
		t.Fatalf("err = %v", err)
	}
}

func TestIsIndependent(t *testing.T) {
	g := Complete(4)
	if !IsIndependent(g, []bool{true, false, false, false}) {
		t.Fatal("singleton must be independent")
	}
	if IsIndependent(g, []bool{true, true, false, false}) {
		t.Fatal("two clique vertices cannot be independent")
	}
}

func TestSetListRoundTrip(t *testing.T) {
	set := []bool{false, true, false, true, true}
	list := SetToList(set)
	want := []int{1, 3, 4}
	if len(list) != len(want) {
		t.Fatalf("list = %v", list)
	}
	for i := range want {
		if list[i] != want[i] {
			t.Fatalf("list = %v", list)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := GNP(40, 0.2, rng.New(14))
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip: got n=%d m=%d, want n=%d m=%d", g2.N(), g2.M(), g.N(), g.M())
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e[0], e[1]) {
			t.Fatalf("missing edge %v after round trip", e)
		}
	}
}

func TestEdgeListIsolatedVertices(t *testing.T) {
	g := Empty(7)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != 7 || g2.M() != 0 {
		t.Fatalf("round trip of edgeless graph: %v", g2)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",             // no header
		"x 5\n0 1\n",   // bad header keyword
		"n -1\n",       // negative count
		"n abc\n",      // non-numeric count
		"n 3\n0\n",     // short edge line
		"n 3\n0 x\n",   // bad vertex
		"n 3\nz 1\n",   // bad vertex (first)
		"n 3\n0 5\n",   // out of range
		"n 3\n1 1\n",   // self loop
		"n 3\n0 1 2\n", // too many fields
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\nn 3\n# another\n0 1\n\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("g = %v", g)
	}
}
