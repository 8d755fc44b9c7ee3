package beepmis

import (
	"context"
	"testing"

	"beepmis/internal/graph"
	"beepmis/internal/scenario"
	"beepmis/internal/sim"
)

// TestTenMillionEdgeScenario is the pipeline's scale acceptance test: a
// Graph500-skewed R-MAT with a >10^7-edge budget must construct through
// the streamed two-pass builder, fit the default engine memory budget,
// and complete a verifier-clean sparse-engine scenario. Everything
// upstream (two-pass builder, chunked generators, the sparse engine
// over the graph's rows) is exercised at the scale the pipeline was
// built for; the unit tests only prove the
// pieces agree at toy sizes.
func TestTenMillionEdgeScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("10^7-edge construction and simulation; skipped in -short mode")
	}
	compiled, err := scenario.ParseCompiledBytes([]byte(`{
		"graph": {"family": "rmat", "n": 1048576, "edges": 12582912, "seed": 29},
		"algorithm": "feedback",
		"engine": "sparse",
		"trials": 1,
		"seed": 3
	}`))
	if err != nil {
		t.Fatal(err)
	}
	report, err := scenario.Run(context.Background(), compiled, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u := report.Units[0]
	// The sampled budget loses self-loops and duplicates; the floor the
	// acceptance criterion cares about is the post-dedupe edge count.
	if u.Edges < 1e7 {
		t.Fatalf("R-MAT delivered %.0f edges, want >= 10^7", u.Edges)
	}
	if got := graph.CSRBytes(u.Nodes, int(u.Edges)); got > sim.DefaultMemoryBudget {
		t.Fatalf("CSR footprint %d exceeds the default engine budget %d", got, sim.DefaultMemoryBudget)
	}
	if !u.Verified {
		t.Fatal("terminal state is not a maximal independent set")
	}
	if !u.IndependentEveryRound || !u.MaximalAtTermination {
		t.Fatalf("round-by-round verification failed: independent=%v maximal=%v",
			u.IndependentEveryRound, u.MaximalAtTermination)
	}
}
