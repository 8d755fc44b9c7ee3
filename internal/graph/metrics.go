package graph

// LineGraph returns the line graph L(g): one vertex per edge of g, two
// vertices adjacent iff the corresponding edges share an endpoint. The
// returned edge list maps each line-graph vertex back to its source edge
// {u, v} with u < v. A maximal independent set of L(g) is exactly a
// maximal matching of g — the reduction the coloring/matching
// applications use.
func LineGraph(g *Graph) (*Graph, [][2]int) {
	edges := g.Edges()
	idx := make(map[[2]int]int, len(edges))
	for i, e := range edges {
		idx[e] = i
	}
	b := NewBuilder(len(edges))
	norm := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	for i, e := range edges {
		for _, endpoint := range e {
			for _, w := range g.Neighbors(endpoint) {
				other := norm(endpoint, int(w))
				j, ok := idx[other]
				if ok && j > i {
					_ = b.AddEdge(i, j)
				}
			}
		}
	}
	return b.Build(), edges
}

// IsMaximalMatching reports whether matched (indexed like the edge list
// from LineGraph or Edges) selects a maximal matching of g: no two
// selected edges share an endpoint, and every unselected edge conflicts
// with a selected one.
func IsMaximalMatching(g *Graph, edges [][2]int, matched []bool) bool {
	if len(edges) != len(matched) {
		return false
	}
	used := make([]bool, g.N())
	for i, e := range edges {
		if !matched[i] {
			continue
		}
		if used[e[0]] || used[e[1]] {
			return false // two matched edges share an endpoint
		}
		used[e[0]] = true
		used[e[1]] = true
	}
	for i, e := range edges {
		if !matched[i] && !used[e[0]] && !used[e[1]] {
			return false // this edge could still be added
		}
	}
	return true
}
