package beepmis

import "testing"

// TestEngineEquivalence asserts the public seed-equivalence contract:
// for every beeping algorithm, graph family, seed, and shard count, the
// columnar and sparse simulator engines produce the Results of the
// message-passing protocol run in process (WithConcurrentEngine), an
// independent implementation of the same time step. The families mirror the
// repository's generator catalogue; sizes straddle 64-bit word
// boundaries so packing bugs cannot hide.
func TestEngineEquivalence(t *testing.T) {
	families := []struct {
		name string
		g    *Graph
	}{
		{"gnp-190-half", GNP(190, 0.5, 1)},
		{"gnp-260-sparse", GNP(260, 0.03, 2)},
		{"grid-11x13", Grid(11, 13)},
		{"complete-96", Complete(96)},
		{"cliquefamily-343", CliqueFamily(343)},
		{"unitdisk-220", UnitDisk(220, 0.12, 3)},
	}
	algos := []Algorithm{AlgorithmFeedback, AlgorithmGlobalSweep, AlgorithmAfekOriginal}
	seeds := []uint64{0, 1, 42, 1 << 33}
	// Both simulator engines at shard counts bracketing serial, odd, and
	// all-cores sharding.
	variants := []struct {
		name string
		opts []Option
	}{
		{"columnar-1", []Option{WithEngine(EngineColumnar), WithShards(1)}},
		{"columnar-3", []Option{WithEngine(EngineColumnar), WithShards(3)}},
		{"columnar-all", []Option{WithEngine(EngineColumnar)}},
		{"sparse-1", []Option{WithEngine(EngineSparse), WithShards(1)}},
		{"sparse-3", []Option{WithEngine(EngineSparse), WithShards(3)}},
		{"sparse-all", []Option{WithEngine(EngineSparse)}},
	}

	for _, fam := range families {
		for _, algo := range algos {
			for _, seed := range seeds {
				t.Run(fam.name+"/"+string(algo), func(t *testing.T) {
					oracle, err := Solve(fam.g, algo, WithSeed(seed), WithConcurrentEngine())
					if err != nil {
						t.Fatalf("concurrent: %v", err)
					}
					if err := Verify(fam.g, oracle.InMIS); err != nil {
						t.Fatalf("seed %d: invalid MIS: %v", seed, err)
					}
					for _, variant := range variants {
						res, err := Solve(fam.g, algo, append([]Option{WithSeed(seed)}, variant.opts...)...)
						if err != nil {
							t.Fatalf("%s: %v", variant.name, err)
						}
						if oracle.Rounds != res.Rounds {
							t.Fatalf("seed %d %s: Rounds %d vs %d", seed, variant.name, oracle.Rounds, res.Rounds)
						}
						if oracle.TotalBeeps != res.TotalBeeps {
							t.Fatalf("seed %d %s: TotalBeeps %d vs %d", seed, variant.name, oracle.TotalBeeps, res.TotalBeeps)
						}
						for v := range oracle.InMIS {
							if oracle.InMIS[v] != res.InMIS[v] {
								t.Fatalf("seed %d %s: InMIS differs at vertex %d", seed, variant.name, v)
							}
						}
					}
				})
			}
		}
	}
}

// TestEngineEquivalenceUnderFaults extends the public seed-equivalence
// contract to the fault layer: for every fault-spec combination —
// channel noise, adversarial wake-up, transient outages with resets —
// both simulator engines at several shard counts, and the legacy pins,
// produce identical Results and RobustnessReports. (The message-passing
// protocol has no fault layer; the serial columnar run is the baseline.)
// The trace-level matrix against the per-node reference loop lives in
// internal/sim.
func TestEngineEquivalenceUnderFaults(t *testing.T) {
	g := GNP(170, 0.25, 6)
	specs := []struct {
		name string
		spec FaultSpec
	}{
		{"noise", FaultSpec{Loss: 0.05, Spurious: 0.01}},
		{"wake-uniform", FaultSpec{Wake: &FaultWake{Kind: WakeUniform, Window: 10}}},
		{"wake-degree", FaultSpec{Wake: &FaultWake{Kind: WakeDegree, Window: 7}}},
		{"outages", FaultSpec{Outages: []FaultOutage{
			{Node: 3, From: 2, For: 4},
			{Node: 64, From: 1, For: 3, Reset: true},
		}}},
		{"combined", FaultSpec{
			Loss:     0.03,
			Spurious: 0.01,
			Wake:     &FaultWake{Kind: WakeUniform, Window: 5},
			Outages:  []FaultOutage{{Node: 10, From: 3, For: 4, Reset: true}},
		}},
	}
	variants := []struct {
		name string
		opts []Option
	}{
		{"columnar-3", []Option{WithEngine(EngineColumnar), WithShards(3)}},
		{"sparse-1", []Option{WithEngine(EngineSparse), WithShards(1)}},
		{"sparse-all", []Option{WithEngine(EngineSparse)}},
		{"scalar", []Option{WithEngine(EngineScalar)}},
		{"bitset", []Option{WithEngine(EngineBitset)}},
	}
	for _, fc := range specs {
		for _, algo := range []Algorithm{AlgorithmFeedback, AlgorithmGlobalSweep} {
			for _, seed := range []uint64{1, 99} {
				base, err := Solve(g, algo, WithSeed(seed), WithEngine(EngineColumnar), WithShards(1), WithFaults(fc.spec))
				if err != nil {
					t.Fatalf("%s/%s columnar-1: %v", fc.name, algo, err)
				}
				if base.Robustness == nil {
					t.Fatalf("%s/%s: faulty run returned no RobustnessReport", fc.name, algo)
				}
				for _, variant := range variants {
					res, err := Solve(g, algo, append([]Option{WithSeed(seed), WithFaults(fc.spec)}, variant.opts...)...)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", fc.name, algo, variant.name, err)
					}
					if base.Rounds != res.Rounds || base.TotalBeeps != res.TotalBeeps {
						t.Fatalf("%s/%s/%s seed %d: rounds %d vs %d, beeps %d vs %d",
							fc.name, algo, variant.name, seed, base.Rounds, res.Rounds, base.TotalBeeps, res.TotalBeeps)
					}
					for v := range base.InMIS {
						if base.InMIS[v] != res.InMIS[v] {
							t.Fatalf("%s/%s/%s seed %d: InMIS differs at vertex %d", fc.name, algo, variant.name, seed, v)
						}
					}
					if base.Robustness.StableRound != res.Robustness.StableRound ||
						base.Robustness.IndependenceViolations != res.Robustness.IndependenceViolations ||
						len(base.Robustness.Uncovered) != len(res.Robustness.Uncovered) {
						t.Fatalf("%s/%s/%s seed %d: robustness reports differ: %+v vs %+v",
							fc.name, algo, variant.name, seed, base.Robustness, res.Robustness)
					}
					for i, v := range base.Robustness.Uncovered {
						if res.Robustness.Uncovered[i] != v {
							t.Fatalf("%s/%s/%s seed %d: uncovered sets differ: %v vs %v",
								fc.name, algo, variant.name, seed, base.Robustness.Uncovered, res.Robustness.Uncovered)
						}
					}
				}
			}
		}
	}
}

// TestShardsConflicts pins the explicit rejection of WithShards under
// the message-passing protocol, which has no sharded propagation to
// configure, and that shards compose with auto and with every simulator
// engine pin — the legacy scalar pin included, which used to be refused.
func TestShardsConflicts(t *testing.T) {
	g := GNP(40, 0.3, 2)
	if _, err := Solve(g, AlgorithmFeedback, WithSeed(1), WithShards(4), WithConcurrentEngine()); err == nil {
		t.Fatal("WithShards + WithConcurrentEngine was silently accepted")
	}
	for _, e := range []Engine{EngineAuto, EngineScalar, EngineBitset, EngineColumnar, EngineSparse} {
		if _, err := Solve(g, AlgorithmFeedback, WithSeed(1), WithShards(4), WithEngine(e)); err != nil {
			t.Fatalf("WithShards + WithEngine(%v): %v", e, err)
		}
	}
}

// TestEnginePinConflictsWithConcurrent asserts the explicit rejection of
// an engine pin combined with the message-passing protocol, which has no
// simulator engine to pin.
func TestEnginePinConflictsWithConcurrent(t *testing.T) {
	g := GNP(40, 0.3, 2)
	_, err := Solve(g, AlgorithmFeedback, WithSeed(1), WithEngine(EngineBitset), WithConcurrentEngine())
	if err == nil {
		t.Fatal("WithEngine + WithConcurrentEngine was silently accepted")
	}
	// The auto pin is the no-op default and stays allowed.
	if _, err := Solve(g, AlgorithmFeedback, WithSeed(1), WithEngine(EngineAuto), WithConcurrentEngine()); err != nil {
		t.Fatalf("WithEngine(EngineAuto) + WithConcurrentEngine: %v", err)
	}
}

// TestEngineDefaultIsAuto pins the default Solve path to the same result
// as both explicit engines, so auto-selection can never change results.
func TestEngineDefaultIsAuto(t *testing.T) {
	g := GNP(300, 0.5, 9)
	def, err := Solve(g, AlgorithmFeedback, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{EngineAuto, EngineScalar, EngineBitset, EngineColumnar, EngineSparse} {
		res, err := Solve(g, AlgorithmFeedback, WithSeed(5), WithEngine(e))
		if err != nil {
			t.Fatalf("engine %v: %v", e, err)
		}
		if res.Rounds != def.Rounds || res.TotalBeeps != def.TotalBeeps {
			t.Fatalf("engine %v diverged from default: rounds %d vs %d, beeps %d vs %d",
				e, res.Rounds, def.Rounds, res.TotalBeeps, def.TotalBeeps)
		}
		for v := range def.InMIS {
			if res.InMIS[v] != def.InMIS[v] {
				t.Fatalf("engine %v: InMIS differs at vertex %d", e, v)
			}
		}
	}
}
