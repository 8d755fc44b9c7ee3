package graph

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"beepmis/internal/rng"
)

// builderReference is the adjacency-list Builder that the flat Builder
// replaced, kept as the oracle Builder must match row for row: every
// edge is appended to both endpoints' lists, and Build sorts and
// dedupes each list in place.
type builderReference struct {
	n   int
	adj [][]int32
}

func newBuilderReference(n int) *builderReference {
	n = max(n, 0)
	return &builderReference{n: n, adj: make([][]int32, n)}
}

// AddEdge has Builder.AddEdge's contract.
func (b *builderReference) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("%w: edge {%d,%d} with n=%d", ErrVertexRange, u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	b.adj[u] = append(b.adj[u], int32(v))
	b.adj[v] = append(b.adj[v], int32(u))
	return nil
}

// Build sorts and dedupes every list and lays the lists out as a
// Graph's rows.
func (b *builderReference) Build() *Graph {
	offsets := make([]int64, b.n+1)
	var cols []int32
	for v, lst := range b.adj {
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		var prev int32 = -1
		for _, w := range lst {
			if w != prev {
				cols = append(cols, w)
				prev = w
			}
		}
		offsets[v+1] = int64(len(cols))
	}
	return &Graph{n: b.n, offsets: offsets, cols: cols}
}

// referenceBuild finishes a Builder's edge list through
// builderReference; it has finishBuild's signature.
func referenceBuild(n int, edges []int32) *Graph {
	b := newBuilderReference(n)
	for i := 0; i < len(edges); i += 2 {
		if err := b.AddEdge(int(edges[i]), int(edges[i+1])); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// withReferenceBuilder calls build with every Builder finishing
// through builderReference.
func withReferenceBuilder(build func() *Graph) *Graph {
	saved := finishBuild
	finishBuild = referenceBuild
	defer func() { finishBuild = saved }()
	return build()
}

// assertSameRows fails unless got and want have the same vertex
// count, edge count and rows.
func assertSameRows(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: n=%d m=%d, reference n=%d m=%d", name, got.N(), got.M(), want.N(), want.M())
	}
	for v := 0; v < got.N(); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("%s: row %d is %v, reference %v", name, v, got.Neighbors(v), want.Neighbors(v))
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestBuilderMatchesReference builds every Builder-based constructor
// both ways — finishing through CSRBuilder, and through the
// adjacency-list reference — over a small parameter grid and compares
// rows.
func TestBuilderMatchesReference(t *testing.T) {
	must := func(g *Graph, err error) *Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	type ctor struct {
		name  string
		build func() *Graph
	}
	var ctors []ctor
	add := func(name string, build func() *Graph) { ctors = append(ctors, ctor{name, build}) }
	for _, n := range []int{0, 1, 2, 7, 64, 65, 130} {
		add(fmt.Sprintf("empty/%d", n), func() *Graph { return Empty(n) })
		add(fmt.Sprintf("complete/%d", n), func() *Graph { return Complete(n) })
		add(fmt.Sprintf("cliques/%d", n), func() *Graph { return CliqueFamily(n) })
		add(fmt.Sprintf("path/%d", n), func() *Graph { return Path(n) })
		add(fmt.Sprintf("star/%d", n), func() *Graph { return Star(n) })
		add(fmt.Sprintf("tree/%d", n), func() *Graph { return RandomTree(n, rng.New(uint64(n))) })
		add(fmt.Sprintf("completebinarytree/%d", n), func() *Graph { return CompleteBinaryTree(n) })
		add(fmt.Sprintf("unitdisk/%d", n), func() *Graph { return UnitDisk(n, 0.3, rng.New(uint64(n))) })
		if n >= 3 {
			add(fmt.Sprintf("cycle/%d", n), func() *Graph { return Cycle(n) })
		}
		if n >= 7 {
			add(fmt.Sprintf("barabasialbert/%d", n), func() *Graph { return must(BarabasiAlbert(n, 3, rng.New(uint64(n)))) })
			add(fmt.Sprintf("wattsstrogatz/%d", n), func() *Graph { return must(WattsStrogatz(n, 4, 0.3, rng.New(uint64(n)))) })
			add(fmt.Sprintf("randomregular/%d", n), func() *Graph { return must(RandomRegular(n, 4, rng.New(uint64(n)))) })
			add(fmt.Sprintf("bipartite/%d", n), func() *Graph { return Bipartite(n/2, n-n/2, 0.4, rng.New(uint64(n))) })
		}
	}
	for _, rc := range [][2]int{{1, 1}, {1, 9}, {5, 7}, {8, 8}} {
		add(fmt.Sprintf("grid/%dx%d", rc[0], rc[1]), func() *Graph { return Grid(rc[0], rc[1]) })
		add(fmt.Sprintf("torus/%dx%d", rc[0], rc[1]), func() *Graph { return Torus(rc[0], rc[1]) })
	}
	for _, d := range []int{1, 3, 6} {
		add(fmt.Sprintf("hypercube/%d", d), func() *Graph { return must(Hypercube(d)) })
	}
	add("cliqueunion", func() *Graph { return CliqueUnion([]int{1, 4, 2, 6}) })
	add("caterpillar", func() *Graph { return Caterpillar(6, 3) })
	for _, seed := range []uint64{1, 2} {
		base := func() *Graph { return GNP(40, 0.2, rng.New(seed)) }
		add(fmt.Sprintf("disjointunion/%d", seed), func() *Graph { return DisjointUnion(base(), Path(5), Empty(3), Star(6)) })
		add(fmt.Sprintf("inducedsubgraph/%d", seed), func() *Graph {
			return must(InducedSubgraph(base(), []int{0, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}))
		})
		add(fmt.Sprintf("linegraph/%d", seed), func() *Graph { g, _ := LineGraph(base()); return g })
	}
	for _, c := range ctors {
		want := withReferenceBuilder(c.build)
		assertSameRows(t, c.name, c.build(), want)
	}
}
