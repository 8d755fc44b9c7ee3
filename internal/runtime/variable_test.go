package runtime

import (
	"testing"

	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
)

// TestEngineEquivalenceVariableFactors covers the subtle part of the
// jittered feedback variant: it draws its per-step factors from the
// node's randomness stream inside Observe, which is only sound if both
// engines call Beep/Observe in exactly the same per-node order. A
// divergence here would silently skew the ablate-jitter experiment.
func TestEngineEquivalenceVariableFactors(t *testing.T) {
	factory, err := mis.NewFeedback(mis.FeedbackConfig{
		Factor:       1.3,
		FactorMax:    4,
		InitialPByID: []float64{1.0 / 2, 1.0 / 3, 1.0 / 4, 1.0 / 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{
		graph.GNP(70, 0.4, rng.New(1)),
		graph.CliqueFamily(300),
		graph.Grid(6, 8),
	} {
		for seed := uint64(40); seed < 43; seed++ {
			simRes, err := sim.Run(g, factory, rng.New(seed), sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rtRes, err := Run(g, factory, rng.New(seed), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if simRes.Rounds != rtRes.Rounds || simRes.TotalBeeps != rtRes.TotalBeeps {
				t.Fatalf("seed %d: engines diverged under jittered factors (rounds %d/%d, beeps %d/%d)",
					seed, simRes.Rounds, rtRes.Rounds, simRes.TotalBeeps, rtRes.TotalBeeps)
			}
			for v := range simRes.InMIS {
				if simRes.InMIS[v] != rtRes.InMIS[v] {
					t.Fatalf("seed %d: node %d membership differs", seed, v)
				}
			}
			if err := graph.VerifyMIS(g, simRes.InMIS); err != nil {
				t.Fatal(err)
			}
		}
	}
}
