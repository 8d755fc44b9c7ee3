package graph

import (
	"fmt"
	"math"
	"sort"

	"beepmis/internal/rng"
)

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			_ = b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Grid returns the rows×cols rectangular grid graph (4-neighbour
// adjacency). The paper's §5 reports ~1.1 mean beeps per node on
// rectangular grids.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				_ = b.AddEdge(idx(r, c), idx(r, c+1))
			}
			if r+1 < rows {
				_ = b.AddEdge(idx(r, c), idx(r+1, c))
			}
		}
	}
	return b.Build()
}

// Torus returns the rows×cols grid with wraparound edges (every vertex has
// degree exactly 4 when rows, cols >= 3).
func Torus(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	idx := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if cols > 1 {
				_ = b.AddEdge(idx(r, c), idx(r, c+1))
			}
			if rows > 1 {
				_ = b.AddEdge(idx(r, c), idx(r+1, c))
			}
		}
	}
	return b.Build()
}

// Path returns the path graph P_n (n-1 edges).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		_ = b.AddEdge(v, v+1)
	}
	return b.Build()
}

// Cycle returns the cycle graph C_n (for n >= 3).
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	if n >= 3 {
		for v := 0; v < n; v++ {
			_ = b.AddEdge(v, (v+1)%n)
		}
	} else if n == 2 {
		_ = b.AddEdge(0, 1)
	}
	return b.Build()
}

// Star returns the star K_{1,n-1} with vertex 0 as the hub.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(0, v)
	}
	return b.Build()
}

// RandomTree returns a uniformly random labelled tree on n vertices via a
// random Prüfer-like attachment: vertex i (i >= 1) attaches to a uniform
// earlier vertex. (This is a random recursive tree, not uniform over all
// labelled trees, which is fine for workload purposes.)
func RandomTree(n int, src *rng.Source) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(v, src.Intn(v))
	}
	return b.Build()
}

// CliqueUnion returns the disjoint union of cliques with the given sizes.
func CliqueUnion(sizes []int) *Graph {
	total := 0
	for _, s := range sizes {
		total += s
	}
	b := NewBuilder(total)
	base := 0
	for _, s := range sizes {
		for u := 0; u < s; u++ {
			for v := u + 1; v < s; v++ {
				_ = b.AddEdge(base+u, base+v)
			}
		}
		base += s
	}
	return b.Build()
}

// CliqueFamily returns the Theorem 1 lower-bound family: for each
// d = 1..k, the graph contains k disjoint copies of the complete graph
// K_d, where k = floor(n^(1/3)) for the requested parameter n. The total
// vertex count is k·k(k+1)/2 = Θ(n) as in the paper. Any algorithm that
// uses one global preset probability schedule needs Ω(log² n) rounds on
// this family; the feedback algorithm does not.
func CliqueFamily(n int) *Graph {
	k := int(math.Cbrt(float64(n)))
	if k < 1 {
		k = 1
	}
	sizes := make([]int, 0, k*k)
	for d := 1; d <= k; d++ {
		for c := 0; c < k; c++ {
			sizes = append(sizes, d)
		}
	}
	return CliqueUnion(sizes)
}

// UnitDisk returns a random geometric (unit-disk) graph: n points uniform
// in the unit square, an edge between points at Euclidean distance <= r.
// This models an ad hoc wireless sensor network, the application the
// paper's conclusion motivates. Cells of side r bucket the points so the
// construction is near-linear for sparse radii.
func UnitDisk(n int, r float64, src *rng.Source) *Graph {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = src.Float64()
		ys[i] = src.Float64()
	}
	return unitDiskFromPoints(xs, ys, r)
}

// UnitDiskPoints is UnitDisk but also returns the sampled coordinates,
// which the sensornet example uses for rendering.
func UnitDiskPoints(n int, r float64, src *rng.Source) (*Graph, []float64, []float64) {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = src.Float64()
		ys[i] = src.Float64()
	}
	return unitDiskFromPoints(xs, ys, r), xs, ys
}

func unitDiskFromPoints(xs, ys []float64, r float64) *Graph {
	n := len(xs)
	b := NewBuilder(n)
	if r <= 0 || n == 0 {
		return b.Build()
	}
	cells := int(1 / r)
	if cells < 1 {
		cells = 1
	}
	grid := make(map[[2]int][]int)
	cellOf := func(i int) [2]int {
		cx := int(xs[i] * float64(cells))
		cy := int(ys[i] * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return [2]int{cx, cy}
	}
	for i := 0; i < n; i++ {
		c := cellOf(i)
		grid[c] = append(grid[c], i)
	}
	r2 := r * r
	for i := 0; i < n; i++ {
		c := cellOf(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range grid[[2]int{c[0] + dx, c[1] + dy}] {
					if j <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if float64(ddx*ddx)+float64(ddy*ddy) <= r2 {
						_ = b.AddEdge(i, j)
					}
				}
			}
		}
	}
	return b.Build()
}

// BarabasiAlbert returns a preferential-attachment graph: starting from a
// small clique of size m, each new vertex attaches to m existing vertices
// chosen proportionally to degree. Produces the heavy-tailed degree
// distributions typical of scale-free networks.
func BarabasiAlbert(n, m int, src *rng.Source) (*Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("graph: BarabasiAlbert needs m >= 1, got %d", m)
	}
	if n < m+1 {
		return Complete(n), nil
	}
	b := NewBuilder(n)
	// repeated holds every edge endpoint once per incidence, so sampling a
	// uniform element samples a vertex proportionally to its degree.
	repeated := make([]int, 0, 2*m*n)
	for u := 0; u < m+1; u++ {
		for v := u + 1; v < m+1; v++ {
			_ = b.AddEdge(u, v)
			repeated = append(repeated, u, v)
		}
	}
	targets := make(map[int]bool, m)
	chosen := make([]int, 0, m)
	for v := m + 1; v < n; v++ {
		clear(targets)
		for len(targets) < m {
			targets[repeated[src.Intn(len(repeated))]] = true
		}
		// Drain the target set in sorted order: appending to `repeated`
		// in map iteration order would make every later draw — and so
		// the whole graph — depend on the runtime's randomized map
		// order, not just the seed. (Caught by misvet's determinism
		// analyzer; before the sort, two same-seed runs could diverge.)
		chosen = chosen[:0]
		for t := range targets {
			chosen = append(chosen, t)
		}
		sort.Ints(chosen)
		for _, t := range chosen {
			_ = b.AddEdge(v, t)
			repeated = append(repeated, v, t)
		}
	}
	return b.Build(), nil
}

// WattsStrogatz returns a small-world graph: a ring lattice where each
// vertex connects to its k nearest neighbours (k even), with each edge
// rewired to a uniform random endpoint with probability beta.
func WattsStrogatz(n, k int, beta float64, src *rng.Source) (*Graph, error) {
	if k%2 != 0 || k < 2 {
		return nil, fmt.Errorf("graph: WattsStrogatz needs even k >= 2, got %d", k)
	}
	if k >= n {
		return Complete(n), nil
	}
	type edge struct{ u, v int }
	edges := make([]edge, 0, n*k/2)
	for v := 0; v < n; v++ {
		for j := 1; j <= k/2; j++ {
			edges = append(edges, edge{v, (v + j) % n})
		}
	}
	present := make(map[edge]bool, len(edges))
	norm := func(e edge) edge {
		if e.u > e.v {
			e.u, e.v = e.v, e.u
		}
		return e
	}
	for _, e := range edges {
		present[norm(e)] = true
	}
	for i, e := range edges {
		if !src.Bernoulli(beta) {
			continue
		}
		// Rewire the far endpoint to a uniform vertex avoiding self-loops
		// and duplicates; give up after a few tries on dense corner cases.
		for tries := 0; tries < 16; tries++ {
			w := src.Intn(n)
			cand := norm(edge{e.u, w})
			if w == e.u || present[cand] {
				continue
			}
			delete(present, norm(e))
			present[cand] = true
			edges[i] = cand
			break
		}
	}
	b := NewBuilder(n)
	//misvet:allow(determinism) insertion order never reaches the output: the edge set is fixed and Builder.Build sorts and dedupes every adjacency row
	for e := range present {
		_ = b.AddEdge(e.u, e.v)
	}
	return b.Build(), nil
}

// Bipartite returns a random bipartite graph with sides of size l and r,
// each cross edge present independently with probability p.
func Bipartite(l, r int, p float64, src *rng.Source) *Graph {
	b := NewBuilder(l + r)
	for u := 0; u < l; u++ {
		for v := 0; v < r; v++ {
			if src.Bernoulli(p) {
				_ = b.AddEdge(u, l+v)
			}
		}
	}
	return b.Build()
}
