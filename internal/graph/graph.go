// Package graph provides the undirected-graph substrate used throughout the
// reproduction: a compact adjacency representation, the generators the
// paper's evaluation needs (Erdős–Rényi G(n,p), rectangular grids, the
// Theorem 1 union-of-cliques family), additional families for the examples
// (unit-disk, Barabási–Albert, Watts–Strogatz, trees, rings, stars),
// structural operations, serialization, and MIS verification.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Graph is a simple undirected graph on vertices 0..N()-1, stored in
// compressed-sparse-row form: one flat int32 neighbour array holding
// every row back to back, sorted within each row, plus per-row offsets.
// It occupies 8·(n+1) bytes of offsets and 4 bytes per arc (two per
// edge); see CSRBytes. The zero value is an empty graph with no
// vertices. Graph is immutable once built and safe for concurrent
// readers.
//
// Rows are sorted, so HasEdge is a binary search. The sparse engine's
// exchanges walk whole rows: a push scatters each emitter's row once,
// a pull probes each listener's row (see PlanExchange and
// ExchangeRange).
type Graph struct {
	n       int
	offsets []int64 // len n+1, or nil when n == 0; row v is cols[offsets[v]:offsets[v+1]]
	cols    []int32 // len 2m, sorted within each row

	// mat is the lazily built packed adjacency-matrix form used by the
	// columnar simulation engine; matOnce guards its one-time
	// construction so concurrent readers stay safe.
	matOnce sync.Once
	mat     *AdjacencyMatrix

	// scratch, when set, is the Scratch the graph was built into; its
	// Matrix() is then built into the scratch's words.
	scratch *Scratch
}

// ErrVertexRange indicates a vertex index outside [0, N).
var ErrVertexRange = errors.New("graph: vertex out of range")

// Builder accumulates edges and produces an immutable Graph. Self-loops
// and out-of-range endpoints are rejected at AddEdge time; duplicate
// edges are accepted and removed by Build, so the finished graph is
// simple either way.
type Builder struct {
	n     int
	edges []int32 // endpoint pairs in insertion order: edge i is {edges[2i], edges[2i+1]}
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: max(n, 0)}
}

// AddEdge inserts the undirected edge {u, v}. It returns an error for
// self-loops or out-of-range endpoints. Duplicate insertions are
// accepted here and deduplicated by Build (a linear duplicate check per
// insert would be quadratic on dense graphs), so generators can be
// sloppy about multi-edges; the built graph's M() counts each edge
// once.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("%w: edge {%d,%d} with n=%d", ErrVertexRange, u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	b.edges = append(b.edges, int32(u), int32(v))
	return nil
}

// Build finalizes the builder into an immutable Graph with sorted rows
// and duplicate edges removed. The builder must not be used after
// Build.
func (b *Builder) Build() *Graph {
	g := finishBuild(b.n, b.edges)
	b.edges = nil
	return g
}

// finishBuild places a Builder's edge list into a Graph through
// CSRBuilder: count, FinishCounts, place, then Finish sorts and dedupes
// every row. The edges were checked by AddEdge, so the builder cannot
// fail. It is a variable so the package's tests can rebuild every
// Builder-based constructor through the adjacency-list reference and
// compare rows.
var finishBuild = func(n int, edges []int32) *Graph {
	c := NewCSRBuilder(n)
	c.countPairs(edges)
	if err := c.FinishCounts(); err != nil {
		panic(err)
	}
	c.placePairs(edges)
	g, err := c.Finish(1)
	if err != nil {
		panic(err)
	}
	return g
}

// Empty returns a graph with n vertices and no edges.
func Empty(n int) *Graph {
	return NewBuilder(n).Build()
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.cols) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// Neighbors returns the sorted neighbour list of v. The returned slice is
// shared with the graph's internal storage and must not be modified; this
// is the hot path of the simulator, so we avoid a defensive copy and
// enforce the contract by documentation, mirroring the standard library's
// bytes.Buffer.Bytes. Its capacity ends at the row's end, so an append
// cannot reach the next row.
func (g *Graph) Neighbors(v int) []int32 {
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.cols[lo:hi:hi]
}

// HasEdge reports whether the edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	_, found := slices.BinarySearch(g.Neighbors(u), int32(v))
	return found
}

// MaxDegree returns the maximum degree, or 0 for an empty graph. It is
// an O(n) scan, so a caller that hands it to every node (the concurrent
// runtime, the TCP coordinator's handshakes) computes it once per run.
// The simulator finds it in its sharded setup pass instead.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.n; v++ {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	return maxDeg
}

// MinDegree returns the minimum degree, or 0 for an empty graph.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	minDeg := g.Degree(0)
	for v := 1; v < g.n; v++ {
		minDeg = min(minDeg, g.Degree(v))
	}
	return minDeg
}

// AvgDegree returns the average degree 2m/n, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(len(g.cols)) / float64(g.n)
}

// Edges returns all edges as [2]int pairs with u < v, sorted
// lexicographically. It allocates; intended for I/O and tests, not the
// simulation hot path.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, g.M())
	for u := 0; u < g.n; u++ {
		for _, w := range g.Neighbors(u) {
			if int32(u) < w {
				edges = append(edges, [2]int{u, int(w)})
			}
		}
	}
	return edges
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return &Graph{n: g.n, offsets: slices.Clone(g.offsets), cols: slices.Clone(g.cols)}
}

// Validate checks internal invariants: monotone offsets covering the
// neighbour array, sorted and deduplicated rows of in-range vertices,
// no self-loops, and symmetry. Generators and loaders are tested
// through this; it is O(m log m).
func (g *Graph) Validate() error {
	if g.n == 0 && len(g.offsets) == 0 {
		if len(g.cols) != 0 {
			return fmt.Errorf("graph: %d neighbour entries without vertices", len(g.cols))
		}
		return nil
	}
	if len(g.offsets) != g.n+1 || g.offsets[0] != 0 || g.offsets[g.n] != int64(len(g.cols)) {
		return fmt.Errorf("graph: row offsets malformed (n=%d, len=%d, cols=%d)", g.n, len(g.offsets), len(g.cols))
	}
	for v := 0; v < g.n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: row offsets decrease at row %d", v)
		}
		row := g.Neighbors(v)
		for i, w := range row {
			if w < 0 || int(w) >= g.n {
				return fmt.Errorf("%w: row %d contains %d", ErrVertexRange, v, w)
			}
			if int(w) == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && row[i-1] >= w {
				return fmt.Errorf("graph: row %d not strictly sorted at index %d", v, i)
			}
			if !g.HasEdge(int(w), v) {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}", v, w)
			}
		}
	}
	return nil
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d maxdeg=%d}", g.N(), g.M(), g.MaxDegree())
}
