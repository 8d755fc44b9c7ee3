package mis

import (
	"fmt"
	"math"
	"testing"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

// TestBulkRangePartitionMatchesFull is the kernel-level contract test
// behind the simulator's sharded eligible-draw phase: for every kernel,
// running BeepRange/ObserveRange over an arbitrary partition of the
// word space — visited in REVERSE order, the harshest legal schedule a
// concurrent pool could produce — must be bit-identical to one
// full-range sweep on a twin kernel, including the reported
// probabilities. Per-node packed state and per-node streams make each
// node's draw independent of every other's; this test is what keeps a
// future kernel from quietly breaking that property.
func TestBulkRangePartitionMatchesFull(t *testing.T) {
	for _, spec := range bulkSpecs() {
		for _, n := range []int{63, 65, 130, 521} {
			for _, parts := range []int{2, 3, 7} {
				name := fmt.Sprintf("%s/n=%d/parts=%d", spec.Name, n, parts)
				t.Run(name, func(t *testing.T) {
					driveRangedAgainstFull(t, spec, n, parts, 12, uint64(n)*uint64(parts)+7)
				})
			}
		}
	}
}

func driveRangedAgainstFull(t *testing.T, spec Spec, n, parts, rounds int, seed uint64) {
	t.Helper()
	_, bulkFactory, err := NewFactories(spec)
	if err != nil {
		t.Fatal(err)
	}
	maskSrc := rng.New(seed ^ 0xdecaf)
	maxDeg := 0
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, maskSrc.Intn(n))
	}
	net := beep.NetworkInfo{N: n, MaxDegree: maxDeg}
	full := bulkFactory(net)
	ranged := bulkFactory(net)
	fullStreams := make([]rng.Source, n)
	rangedStreams := make([]rng.Source, n)
	for v := 0; v < n; v++ {
		rng.New(seed).StreamInto(&fullStreams[v], uint64(v))
		rng.New(seed).StreamInto(&rangedStreams[v], uint64(v))
	}

	words := (n + 63) / 64
	chunk := (words + parts - 1) / parts
	var bounds [][2]int
	for lo := 0; lo < words; lo += chunk {
		bounds = append(bounds, [2]int{lo, min(lo+chunk, words)})
	}

	active := graph.NewBitset(n)
	heard := graph.NewBitset(n)
	observed := graph.NewBitset(n)
	beepedFull := graph.NewBitset(n)
	beepedRanged := graph.NewBitset(n)
	probsFull := make([]float64, n)
	probsRanged := make([]float64, n)
	randomMask := func(b graph.Bitset, within graph.Bitset) {
		b.Zero()
		for v := 0; v < n; v++ {
			if (within == nil || within.Test(v)) && maskSrc.Intn(2) == 1 {
				b.Set(v)
			}
		}
	}
	for round := 0; round < rounds; round++ {
		randomMask(active, nil)
		randomMask(heard, nil)
		randomMask(observed, active)

		beepedFull.Zero()
		full.BeepRange(active, fullStreams, beepedFull, 0, words)
		beepedRanged.Zero()
		for i := len(bounds) - 1; i >= 0; i-- {
			ranged.BeepRange(active, rangedStreams, beepedRanged, bounds[i][0], bounds[i][1])
		}
		for wi := 0; wi < words; wi++ {
			if beepedFull[wi] != beepedRanged[wi] {
				t.Fatalf("round %d word %d: ranged beeps %064b, full %064b", round, wi, beepedRanged[wi], beepedFull[wi])
			}
		}

		full.ObserveRange(observed, beepedFull, heard, 0, words)
		for i := len(bounds) - 1; i >= 0; i-- {
			ranged.ObserveRange(observed, beepedRanged, heard, bounds[i][0], bounds[i][1])
		}

		full.BeepProbabilities(probsFull)
		ranged.BeepProbabilities(probsRanged)
		for v := 0; v < n; v++ {
			if probsFull[v] != probsRanged[v] && !(math.IsNaN(probsFull[v]) && math.IsNaN(probsRanged[v])) {
				t.Fatalf("round %d node %d: ranged p=%v, full p=%v", round, v, probsRanged[v], probsFull[v])
			}
		}
	}
}
