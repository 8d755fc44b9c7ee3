// Package apps builds the classical applications on top of the MIS
// primitive, demonstrating the paper's closing claim that "selecting a
// maximal independent set can also be used as a fundamental building
// block in algorithms for many other problems in distributed computing":
//
//   - (Δ+1)-coloring by iterated MIS: run the beeping MIS on the
//     still-uncolored residual graph; the k-th independent set becomes
//     color k. Every vertex is colored after at most deg(v)+1
//     iterations, so at most Δ+1 colors are used.
//   - Maximal matching as an MIS of the line graph.
//
// Both applications inherit the feedback algorithm's properties: one-bit
// messages, no identifiers or degree knowledge inside the MIS core, and
// O(log n) expected rounds per iteration.
package apps

import (
	"errors"
	"fmt"

	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
)

// ErrImproperColoring indicates two adjacent vertices share a color.
var ErrImproperColoring = errors.New("apps: adjacent vertices share a color")

// ColoringResult reports an iterated-MIS coloring.
type ColoringResult struct {
	// Colors assigns each vertex a color in [0, NumColors).
	Colors []int
	// NumColors is the number of colors used (at most MaxDegree+1).
	NumColors int
	// TotalRounds sums the beeping rounds across all MIS iterations —
	// the end-to-end distributed time.
	TotalRounds int
}

// ColorGraph colors g with iterated beeping MIS: the published feedback
// algorithm, each iteration under the simulator's default round cap.
// The result uses at most MaxDegree+1 colors. Deterministic given seed.
func ColorGraph(g *graph.Graph, seed uint64) (*ColoringResult, error) {
	factory, err := mis.NewFeedback(mis.FeedbackConfig{})
	if err != nil {
		return nil, err
	}
	n := g.N()
	colors := make([]int, n)
	for v := range colors {
		colors[v] = -1
	}
	res := &ColoringResult{}
	master := rng.New(seed)

	uncolored := make([]int, n)
	for v := range uncolored {
		uncolored[v] = v
	}
	for color := 0; len(uncolored) > 0; color++ {
		sub, err := graph.InducedSubgraph(g, uncolored)
		if err != nil {
			return nil, fmt.Errorf("residual graph at color %d: %w", color, err)
		}
		run, err := sim.Run(sub, factory, master.Stream(uint64(color)), sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("MIS iteration %d: %w", color, err)
		}
		res.TotalRounds += run.Rounds
		next := uncolored[:0]
		for i, v := range uncolored {
			if run.InMIS[i] {
				colors[v] = color
			} else {
				next = append(next, v)
			}
		}
		uncolored = next
		res.NumColors = color + 1
	}
	res.Colors = colors
	return res, nil
}

// VerifyColoring checks that colors is a proper coloring of g with
// every vertex colored.
func VerifyColoring(g *graph.Graph, colors []int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("apps: %d colors for %d vertices", len(colors), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if colors[v] < 0 {
			return fmt.Errorf("apps: vertex %d uncolored", v)
		}
		for _, w := range g.Neighbors(v) {
			if int(w) > v && colors[w] == colors[v] {
				return fmt.Errorf("%w: {%d,%d} both color %d", ErrImproperColoring, v, w, colors[v])
			}
		}
	}
	return nil
}

// MatchingResult reports a maximal matching computed via line-graph MIS.
type MatchingResult struct {
	// Edges lists g's edges as {u, v} pairs with u < v; Matched[i]
	// selects Edges[i].
	Edges [][2]int
	// Matched is the matching's membership vector over Edges.
	Matched []bool
	// Rounds is the beeping rounds of the underlying MIS run.
	Rounds int
}

// Size returns the number of matched edges.
func (m *MatchingResult) Size() int {
	count := 0
	for _, in := range m.Matched {
		if in {
			count++
		}
	}
	return count
}

// MaximalMatching computes a maximal matching of g by running the
// beeping MIS on the line graph L(g): two edges can both be matched iff
// they do not share an endpoint, which is exactly independence in L(g).
// In a real deployment each edge's automaton would be hosted by one of
// its endpoints; the reduction preserves the one-bit message discipline.
func MaximalMatching(g *graph.Graph, seed uint64) (*MatchingResult, error) {
	factory, err := mis.NewFeedback(mis.FeedbackConfig{})
	if err != nil {
		return nil, err
	}
	lg, edges := graph.LineGraph(g)
	run, err := sim.Run(lg, factory, rng.New(seed), sim.Options{})
	if err != nil {
		return nil, fmt.Errorf("line-graph MIS: %w", err)
	}
	return &MatchingResult{Edges: edges, Matched: run.InMIS, Rounds: run.Rounds}, nil
}
