// Coloring: MIS as a building block — the paper's conclusion notes that
// "selecting a maximal independent set can also be used as a fundamental
// building block in algorithms for many other problems in distributed
// computing". This example builds two of the classics on the feedback
// MIS core:
//
//   - (Δ+1)-coloring by iterated MIS, cast here as radio channel
//     assignment in a wireless network: vertices sharing an edge (i.e.
//     within interference range) must use different channels.
//
//   - Maximal matching via MIS on the line graph, cast as pairing nodes
//     for point-to-point calibration.
//
//     go run ./examples/coloring
package main

import (
	"fmt"
	"log"

	"beepmis/internal/apps"
	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		nodes  = 300
		radius = 0.1
		seed   = 11
	)
	g := graph.UnitDisk(nodes, radius, rng.New(seed))
	fmt.Printf("radio network: %d nodes, %d interference edges, max degree %d\n\n",
		g.N(), g.M(), g.MaxDegree())

	// Channel assignment by iterated beeping MIS.
	coloring, err := apps.ColorGraph(g, seed)
	if err != nil {
		return err
	}
	if err := apps.VerifyColoring(g, coloring.Colors); err != nil {
		return fmt.Errorf("channel assignment invalid: %w", err)
	}
	fmt.Printf("channel assignment: %d channels (bound Δ+1 = %d), %d total beeping rounds\n",
		coloring.NumColors, g.MaxDegree()+1, coloring.TotalRounds)

	hist := make([]int, coloring.NumColors)
	for _, c := range coloring.Colors {
		hist[c]++
	}
	fmt.Println("nodes per channel:")
	for c, count := range hist {
		fmt.Printf("  channel %2d: %4d %s\n", c, count, bar(count))
	}

	// Maximal matching for pairwise calibration.
	matching, err := apps.MaximalMatching(g, seed+1)
	if err != nil {
		return err
	}
	if !graph.IsMaximalMatching(g, matching.Edges, matching.Matched) {
		return fmt.Errorf("calibration pairing is not a maximal matching")
	}
	fmt.Printf("\ncalibration pairing: %d pairs out of %d links, computed in %d rounds on the line graph\n",
		matching.Size(), g.M(), matching.Rounds)

	// Iterated MIS on a complete graph needs exactly n colors — show the
	// worst case honestly.
	k := graph.Complete(8)
	worst, err := apps.ColorGraph(k, seed)
	if err != nil {
		return err
	}
	fmt.Printf("\nworst case: K_8 needs %d channels (every pair interferes)\n", worst.NumColors)
	return nil
}

// bar renders a proportional histogram bar.
func bar(count int) string {
	out := make([]byte, 0, count/2)
	for i := 0; i < count/2; i++ {
		out = append(out, '#')
	}
	return string(out)
}
