package graph

import "fmt"

// DisjointUnion returns the disjoint union of the given graphs, with the
// vertices of each successive graph shifted past those of its
// predecessors.
func DisjointUnion(gs ...*Graph) *Graph {
	total := 0
	for _, g := range gs {
		total += g.N()
	}
	b := NewBuilder(total)
	base := 0
	for _, g := range gs {
		for u := 0; u < g.N(); u++ {
			for _, w := range g.Neighbors(u) {
				if int32(u) < w {
					_ = b.AddEdge(base+u, base+int(w))
				}
			}
		}
		base += g.N()
	}
	return b.Build()
}

// InducedSubgraph returns the subgraph induced by the given vertices,
// relabelled 0..len(vs)-1 in the order given. Duplicate or out-of-range
// vertices yield an error.
func InducedSubgraph(g *Graph, vs []int) (*Graph, error) {
	remap := make(map[int]int, len(vs))
	for i, v := range vs {
		if v < 0 || v >= g.N() {
			return nil, fmt.Errorf("%w: induced subgraph vertex %d", ErrVertexRange, v)
		}
		if _, dup := remap[v]; dup {
			return nil, fmt.Errorf("graph: duplicate vertex %d in induced subgraph", v)
		}
		remap[v] = i
	}
	b := NewBuilder(len(vs))
	for _, v := range vs {
		for _, w := range g.Neighbors(v) {
			j, ok := remap[int(w)]
			if ok && remap[v] < j {
				_ = b.AddEdge(remap[v], j)
			}
		}
	}
	return b.Build(), nil
}

// ConnectedComponents returns, for each vertex, the id of its component
// (ids are 0-based, assigned in order of lowest-numbered member), plus the
// number of components.
func ConnectedComponents(g *Graph) (comp []int, count int) {
	n := g.N()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	for v := 0; v < n; v++ {
		if comp[v] != -1 {
			continue
		}
		comp[v] = count
		stack = append(stack[:0], int32(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(int(u)) {
				if comp[w] == -1 {
					comp[w] = count
					stack = append(stack, w)
				}
			}
		}
		count++
	}
	return comp, count
}

// IsConnected reports whether g is connected (the empty graph counts as
// connected).
func IsConnected(g *Graph) bool {
	if g.N() == 0 {
		return true
	}
	_, c := ConnectedComponents(g)
	return c == 1
}
