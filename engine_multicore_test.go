package beepmis

import (
	"fmt"
	"runtime"
	"testing"
)

// TestEngineEquivalenceMultiCore asserts the public seed-equivalence
// contract where it is hardest: under GOMAXPROCS > 1, where the
// columnar and sparse engines' sharded phases (eligible draws, both
// exchanges, observe) genuinely run concurrently, at shard counts
// chosen to be awkward — serial, an odd count that never divides the
// word space evenly, all cores, and 2× oversubscription — against the
// serial columnar run. The graph is
// large enough that the engines' sharded draw path engages (it gates
// on the active population), and the fault variants drag the wake-up,
// outage, and channel-noise overlays through the same concurrency. CI
// runs this under the race detector.
func TestEngineEquivalenceMultiCore(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	gmp := runtime.GOMAXPROCS(0)
	shardCounts := []int{1, 3, gmp, 2 * gmp}

	g := GNP(5000, 0.004, 77)
	specs := []struct {
		name   string
		faults *FaultSpec
	}{
		{"pure", nil},
		{"noise", &FaultSpec{Loss: 0.04, Spurious: 0.01}},
		{"wake-degree", &FaultSpec{Wake: &FaultWake{Kind: WakeDegree, Window: 9}}},
		{"crash-and-reset", &FaultSpec{Outages: []FaultOutage{
			{Node: 12, From: 2, For: 5},
			{Node: 4097, From: 4, For: 3, Reset: true},
		}}},
	}
	for _, fc := range specs {
		t.Run(fc.name, func(t *testing.T) {
			base := []Option{WithSeed(31)}
			if fc.faults != nil {
				base = append(base, WithFaults(*fc.faults))
			}
			serial, err := Solve(g, AlgorithmFeedback, append([]Option{WithEngine(EngineColumnar), WithShards(1)}, base...)...)
			if err != nil {
				t.Fatalf("columnar/shards=1: %v", err)
			}
			if fc.faults == nil {
				if err := Verify(g, serial.InMIS); err != nil {
					t.Fatalf("invalid MIS: %v", err)
				}
			}
			for _, engine := range []Engine{EngineColumnar, EngineSparse} {
				for _, shards := range shardCounts {
					name := fmt.Sprintf("%v/shards=%d", engine, shards)
					res, err := Solve(g, AlgorithmFeedback,
						append([]Option{WithEngine(engine), WithShards(shards)}, base...)...)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if serial.Rounds != res.Rounds || serial.TotalBeeps != res.TotalBeeps {
						t.Fatalf("%s: rounds %d vs %d, beeps %d vs %d",
							name, serial.Rounds, res.Rounds, serial.TotalBeeps, res.TotalBeeps)
					}
					for v := range serial.InMIS {
						if serial.InMIS[v] != res.InMIS[v] {
							t.Fatalf("%s: InMIS differs at vertex %d", name, v)
						}
					}
				}
			}
		})
	}
}
