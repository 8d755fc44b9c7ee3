// Flysop: the biological scenario that inspired the algorithm — sensory
// organ precursor (SOP) selection in the fruit fly's epithelium.
//
// Cells sit in a sheet (modelled as a grid, each cell adjacent to its
// neighbours); during development each cell must become an SOP or a
// neighbour of an SOP, and no two SOPs may touch — a maximal independent
// set (Figure 1B of the paper). Cells signal with membrane proteins
// (Notch–Delta), and the positive feedback in that pathway is what the
// algorithm abstracts: a cell that senses a neighbour's Delta signal
// lowers its own signalling tendency; a cell sensing silence raises it.
//
// The example runs the feedback algorithm on an epithelium grid, shows
// the bristle pattern it produces, and traces how lateral inhibition
// resolves over time.
//
//	go run ./examples/flysop
package main

import (
	"fmt"
	"log"
	"strings"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
)

const (
	rows = 16
	cols = 32
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	g := graph.Grid(rows, cols)
	fmt.Printf("epithelium: %d×%d cell sheet (%d cells)\n\n", rows, cols, g.N())

	factory, err := mis.NewFeedback(mis.FeedbackConfig{})
	if err != nil {
		return err
	}

	// Capture a development timeline: the number of undecided cells and
	// SOPs per round.
	type snap struct{ round, active, sops int }
	var timeline []snap
	res, err := sim.Run(g, factory, rng.New(2013), sim.Options{
		OnRound: func(s sim.Snapshot) {
			sops := 0
			for _, st := range s.States {
				if st == beep.StateInMIS {
					sops++
				}
			}
			timeline = append(timeline, snap{s.Round, s.Active, sops})
		},
	})
	if err != nil {
		return err
	}
	if err := graph.VerifyMIS(g, res.InMIS); err != nil {
		return fmt.Errorf("SOP pattern invalid: %w", err)
	}

	fmt.Println("final bristle pattern (@ = SOP cell, · = epidermal neighbour):")
	fmt.Println(renderSheet(res.InMIS))
	fmt.Printf("\n%d SOPs selected in %d developmental steps; %.2f Delta bursts per cell (paper: ≈1.1 on grids)\n",
		len(graph.SetToList(res.InMIS)), res.Rounds, res.MeanBeepsPerNode())

	fmt.Println("\nlateral inhibition timeline:")
	fmt.Printf("%8s %12s %8s\n", "step", "undecided", "SOPs")
	for _, s := range timeline {
		if s.round <= 10 || s.round == len(timeline) {
			fmt.Printf("%8d %12d %8d\n", s.round, s.active, s.sops)
		}
	}

	// The paper's robustness claim in its biological setting: development
	// still works when the feedback strength varies between cells (here,
	// per-cell initial signalling tendencies).
	hetero, err := mis.NewFeedback(mis.FeedbackConfig{
		// Cell v's tendency is 1/(2 + v mod 7): from 1/2 down to 1/8.
		InitialPByID: []float64{1.0 / 2, 1.0 / 3, 1.0 / 4, 1.0 / 5, 1.0 / 6, 1.0 / 7, 1.0 / 8},
	})
	if err != nil {
		return err
	}
	res2, err := sim.Run(g, hetero, rng.New(2014), sim.Options{})
	if err != nil {
		return err
	}
	if err := graph.VerifyMIS(g, res2.InMIS); err != nil {
		return fmt.Errorf("heterogeneous development failed: %w", err)
	}
	fmt.Printf("\nwith per-cell signalling tendencies: still a valid pattern, %d SOPs in %d steps\n",
		len(graph.SetToList(res2.InMIS)), res2.Rounds)
	return nil
}

// renderSheet draws the cell sheet with SOPs highlighted.
func renderSheet(sops []bool) string {
	var b strings.Builder
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if sops[r*cols+c] {
				b.WriteRune('@')
			} else {
				b.WriteRune('·')
			}
		}
		if r != rows-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
