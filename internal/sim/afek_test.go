package sim

import (
	"math"
	"testing"

	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
)

// afekCycle is the length in rounds of one pass of the Science'11
// schedule on g: one level for each probability from 1/(D+1), doubling
// up to 1/2, stepsPerLevel rounds each (0 means ceil(log2(n+1))).
func afekCycle(g *graph.Graph, stepsPerLevel int) int {
	if stepsPerLevel <= 0 {
		stepsPerLevel = max(1, int(math.Ceil(math.Log2(float64(g.N()+1)))))
	}
	levels := 1
	for p := 1 / float64(max(g.MaxDegree(), 1)+1); p < 0.5; p = min(2*p, 0.5) {
		levels++
	}
	return levels * stepsPerLevel
}

// TestEngineEquivalenceAfekRestart runs the Science'11 schedule long
// enough to restart its ramp at least once, on the reference loop and
// on every engine, kernel and shard count: the restart is part of the
// schedule both the automaton and the kernel must agree on.
func TestEngineEquivalenceAfekRestart(t *testing.T) {
	g := graph.GNP(200, 0.5, rng.New(4))
	spec := mis.Spec{Name: mis.NameAfek, Afek: mis.AfekOriginalConfig{StepsPerLevel: 1}}
	cycle := afekCycle(g, 1)
	for seed := uint64(0); seed < 3; seed++ {
		runs := runAllEngines(t, g, spec, seed, Options{})
		assertAllIdentical(t, runs)
		if rounds := runs[0].res.Rounds; rounds <= cycle {
			t.Fatalf("seed %d: %d rounds do not cross the restart after one %d-round cycle", seed, rounds, cycle)
		}
		if err := graph.VerifyMIS(g, runs[0].res.InMIS); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestAfekEndsWithinThreeCycles is the regression test for the schedule
// that held p at 1/2 after its ramp: on G(100, 1/2) a trial whose nodes
// were all still active at the top of the ramp then almost never ended.
// With the restart, every one of a few thousand seeded trials ends
// within three passes of the schedule.
func TestAfekEndsWithinThreeCycles(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameAfek})
	if err != nil {
		t.Fatal(err)
	}
	master := rng.New(6)
	worst := 0.0
	for trial := range trials {
		g := graph.GNP(100, 0.5, master.Stream(uint64(trial)<<8|1))
		res, err := Run(g, factory, master.Stream(uint64(trial)<<8|2), Options{Bulk: bulk, MaxRounds: 10000})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cycles := float64(res.Rounds) / float64(afekCycle(g, 0))
		if cycles > 3 {
			t.Fatalf("trial %d: %d rounds, %.2f schedule cycles", trial, res.Rounds, cycles)
		}
		worst = max(worst, cycles)
	}
	t.Logf("%d trials, longest %.2f schedule cycles", trials, worst)
}
