package mis

import "beepmis/internal/graph"

// Greedy computes an MIS with the trivial centralised sequential scan the
// paper's introduction describes: visit vertices in order, adding each
// vertex that does not violate independence. It is the correctness
// reference for every distributed algorithm's output and the
// "centralised" baseline (Θ(n + m) sequential work, versus the
// distributed algorithms' O(log n) parallel rounds).
func Greedy(g *graph.Graph) []bool {
	n := g.N()
	set := make([]bool, n)
	blocked := make([]bool, n)
	for v := 0; v < n; v++ {
		if blocked[v] {
			continue
		}
		set[v] = true
		for _, w := range g.Neighbors(v) {
			blocked[w] = true
		}
	}
	return set
}
