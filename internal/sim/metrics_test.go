package sim

import (
	"fmt"
	"testing"

	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/obs"
	"beepmis/internal/rng"
)

// TestMetricsDoNotPerturbResults is the observability layer's central
// correctness claim: running the full engine × shard × fault matrix
// with a metrics bundle attached yields bit-identical results to
// running it without. Instrumentation reads clocks and bumps atomics —
// it must never touch an rng stream or reorder a phase.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	g := graph.GNP(400, 0.05, rng.New(3))
	faultSpecs := map[string]*fault.Spec{
		"pure":  nil,
		"noisy": {Loss: 0.05, Spurious: 0.02},
		"outages": {Outages: []fault.Outage{
			{Node: 3, From: 2, For: 3, Reset: true},
			{Node: 40, From: 4, For: 2},
		}},
	}
	for fname, fs := range faultSpecs {
		t.Run(fname, func(t *testing.T) {
			opts := Options{Faults: fs}
			base := runAllEngines(t, g, mis.Spec{Name: mis.NameFeedback}, 99, opts)
			opts.Metrics = &obs.EngineMetrics{}
			instrumented := runAllEngines(t, g, mis.Spec{Name: mis.NameFeedback}, 99, opts)
			if len(base) != len(instrumented) {
				t.Fatalf("matrix size changed: %d vs %d", len(base), len(instrumented))
			}
			for i := range base {
				assertIdenticalNamed(t, base[i].res, instrumented[i].res,
					base[i].name, base[i].name+"+metrics")
			}
		})
	}
}

// TestEngineMetricsRecording asserts the bundle's bookkeeping is
// internally consistent after real runs under every engine pin, the
// legacy names included: round and run counts match the Result, every
// phase histogram saw every round, and the frontier totals match the
// run's emission accounting.
func TestEngineMetricsRecording(t *testing.T) {
	g := graph.GNP(300, 0.03, rng.New(5))
	for _, tc := range []struct {
		engine Engine
		shards int
	}{
		{EngineScalar, 1},
		{EngineBitset, 1},
		{EngineColumnar, 1},
		{EngineColumnar, 3},
		{EngineSparse, 3},
	} {
		t.Run(fmt.Sprintf("%v/shards=%d", tc.engine, tc.shards), func(t *testing.T) {
			factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
			if err != nil {
				t.Fatal(err)
			}
			m := &obs.EngineMetrics{}
			opts := Options{Engine: tc.engine, Shards: tc.shards, Bulk: bulk, Metrics: m}
			res, err := Run(g, factory, rng.New(17), opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Rounds.Value(); got != uint64(res.Rounds) {
				t.Fatalf("rounds counter %d, result %d", got, res.Rounds)
			}
			if got := m.Runs.Value(); got != 1 {
				t.Fatalf("runs counter %d, want 1", got)
			}
			for p := obs.Phase(0); p < obs.PhaseCount; p++ {
				if got := m.Phase[p].Count(); got != uint64(res.Rounds) {
					t.Fatalf("phase %v histogram saw %d rounds, want %d", p, got, res.Rounds)
				}
			}
			if got := m.Frontier.Count(); got != uint64(res.Rounds) {
				t.Fatalf("frontier histogram saw %d rounds, want %d", got, res.Rounds)
			}
			// Without wake-up or outages there are no persistent beeps, so
			// frontier sizes sum to exactly the total beep count.
			if got := m.Frontier.Sum(); got != uint64(res.TotalBeeps) {
				t.Fatalf("frontier sum %d, total beeps %d", got, res.TotalBeeps)
			}
			if res.TotalBeeps > 0 && m.PropagateBits.Value() == 0 {
				t.Fatal("beeps were emitted but no delivered bits recorded")
			}
			if m.Phase[obs.PhaseEligibleDraw].Sum() == 0 {
				t.Fatal("eligible_draw phase recorded zero total time")
			}
			plans := m.PushExchanges.Value() + m.PullExchanges.Value()
			if want := uint64(2 * res.Rounds); plans != want {
				t.Fatalf("%d exchange plans recorded, want %d (two per round)", plans, want)
			}
			totals := m.PhaseTotals()
			if len(totals) != int(obs.PhaseCount) {
				t.Fatalf("PhaseTotals has %d entries", len(totals))
			}
			if totals["propagate"] <= 0 {
				t.Fatalf("propagate total %d, want > 0", totals["propagate"])
			}
		})
	}
}

// TestSharedMetricsBundleAcrossRuns pins the aggregation contract: one
// bundle fed by several runs (the misd deployment shape) accumulates,
// never resets.
func TestSharedMetricsBundleAcrossRuns(t *testing.T) {
	g := graph.GNP(120, 0.08, rng.New(9))
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	m := &obs.EngineMetrics{}
	totalRounds := 0
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := Run(g, factory, rng.New(seed), Options{Engine: EngineColumnar, Bulk: bulk, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		totalRounds += res.Rounds
	}
	if got := m.Runs.Value(); got != 3 {
		t.Fatalf("runs counter %d, want 3", got)
	}
	if got := m.Rounds.Value(); got != uint64(totalRounds) {
		t.Fatalf("rounds counter %d, want %d", got, totalRounds)
	}
}

// TestMetricsShardSpread asserts the imbalance signal is recorded when
// pooled phases actually run — a graph big enough to clear the sharded
// draw threshold.
func TestMetricsShardSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("large graph")
	}
	g := graph.GNP(6000, 0.002, rng.New(21))
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	m := &obs.EngineMetrics{}
	if _, err := Run(g, factory, rng.New(2), Options{Engine: EngineSparse, Shards: 4, Bulk: bulk, Metrics: m}); err != nil {
		t.Fatal(err)
	}
	if m.ShardSpreadNs.Count() == 0 {
		t.Fatal("no pooled phase recorded a shard spread on a 6000-node sharded run")
	}
}
