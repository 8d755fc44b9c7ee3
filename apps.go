package beepmis

import (
	"beepmis/internal/apps"
	"beepmis/internal/graph"
)

// ColoringResult reports a distributed (Δ+1)-coloring built from
// iterated MIS (see ColorGraph).
type ColoringResult = apps.ColoringResult

// ColorGraph colors g with at most MaxDegree+1 colors by iterating the
// feedback MIS algorithm on the still-uncolored residual graph: the k-th
// independent set becomes color k. It demonstrates the paper's closing
// claim that MIS is a building block for other distributed problems.
func ColorGraph(g *Graph, seed uint64) (*ColoringResult, error) {
	return apps.ColorGraph(g, seed)
}

// VerifyColoring checks that colors is a proper coloring of g with every
// vertex colored.
func VerifyColoring(g *Graph, colors []int) error {
	return apps.VerifyColoring(g, colors)
}

// MatchingResult reports a maximal matching computed by running the
// feedback MIS on the line graph.
type MatchingResult = apps.MatchingResult

// MaximalMatching computes a maximal matching of g: no two selected
// edges share an endpoint and no further edge can be added.
func MaximalMatching(g *Graph, seed uint64) (*MatchingResult, error) {
	return apps.MaximalMatching(g, seed)
}

// VerifyMatching checks that matched is a maximal matching of g over
// edges.
func VerifyMatching(g *Graph, edges [][2]int, matched []bool) bool {
	return graph.IsMaximalMatching(g, edges, matched)
}
