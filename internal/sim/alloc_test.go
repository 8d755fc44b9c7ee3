package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/obs"
	"beepmis/internal/rng"
)

// TestShardPoolRunAllocations pins the pool machinery itself: feeding a
// phase to the persistent workers must not allocate — the whole point
// of keeping the pool alive across rounds instead of spawning
// goroutines per phase.
func TestShardPoolRunAllocations(t *testing.T) {
	pool := newShardPool(1024, 4)
	if pool == nil {
		t.Fatal("pool degenerated")
	}
	defer pool.close()
	touched := make([]int, pool.shards())
	fn := func(shard, lo, hi int) { touched[shard] += hi - lo }
	if allocs := testing.AllocsPerRun(200, func() { pool.run(fn) }); allocs != 0 {
		t.Fatalf("shardPool.run allocates %v per call, want 0", allocs)
	}
	if total := touched[0] + touched[1] + touched[2] + touched[3]; total == 0 {
		t.Fatal("phase fn never ran")
	}
}

// measureRunAllocs returns the heap allocations of one full simulation
// run of spec's algorithm (with its kernel) on g under opts. A run that
// reaches an explicit opts.MaxRounds counts as complete.
func measureRunAllocs(t *testing.T, g *graph.Graph, spec mis.Spec, opts Options) float64 {
	t.Helper()
	factory, bulk, err := mis.NewFactories(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts.Bulk = bulk
	return testing.AllocsPerRun(1, func() {
		_, err := Run(g, factory, rng.New(11), opts)
		if err != nil && !(opts.MaxRounds > 0 && errors.Is(err, ErrTooManyRounds)) {
			t.Fatal(err)
		}
	})
}

// TestRoundLoopAllocations asserts the round loop allocates nothing per
// round in steady state, on both engines, at shard count 1 and at a
// pooled shard count: two runs of the same workload differing only in
// how many rounds they last (a wake schedule holds most of the graph
// dormant until round 160 vs 460, keeping the run — and the sharded
// draw path, since dormant nodes stay active — alive through ~300 extra
// steady-state rounds) must cost the same allocations. Any per-round
// allocation would show up ~300-fold in the difference; the tolerance
// absorbs only incidental noise (map growth, GC bookkeeping), not a
// per-round cost.
//
// The beep-loss rows stretch their runs differently, because the loss
// draw only runs for awake listeners: feedback pinned at p = 1/2 never
// lets a node of this graph beep alone, so the run stalls with every
// node eligible, and capping it at 160 vs 460 rounds adds ~300 rounds
// that each count emitters and draw loss for thousands of listeners.
//
// The scatter rows stall the same way on a denser graph at a lower
// pinned p, so that the sparse engine's first exchange fans out as an
// emitter-range scatter and merge in every extra round: p = 1/16 at
// degree ~250 never lets a node beep alone, and ~310 emitters against
// 5000 listeners make the push beat the pull. The metered row checks
// that the extra rounds did scatter.
func TestRoundLoopAllocations(t *testing.T) {
	const (
		n          = 5000
		earlyBirds = 700 // nodes awake from round 1; the rest ≥ 4300 keep active > drawShardMinNodes
		shortWake  = 160
		longWake   = 460
		slack      = 40 // far below the ~300 allocs a 1-alloc/round regression would add
	)
	g := graph.GNP(n, 0.01, rng.New(7))
	g.Matrix() // build the cached matrix outside the measurement
	wake := func(round int) []int {
		w := make([]int, n)
		for v := earlyBirds; v < n; v++ {
			w[v] = round
		}
		return w
	}
	noise := &fault.Spec{Loss: 0.02, Spurious: 0.01}
	feedback := mis.Spec{Name: mis.NameFeedback}
	stalled := mis.Spec{Name: mis.NameFeedback, Feedback: mis.FeedbackConfig{InitialP: 0.5, MinP: 0.5}}
	dense := graph.GNP(n, 0.05, rng.New(8))
	scattering := mis.Spec{Name: mis.NameFeedback, Feedback: mis.FeedbackConfig{InitialP: 1.0 / 16, MinP: 1.0 / 16, MaxP: 1.0 / 16}}
	for _, tc := range []struct {
		name    string
		engine  Engine
		shards  int
		faults  *fault.Spec
		metrics bool
	}{
		{"columnar/shards=1", EngineColumnar, 1, nil, false},
		{"columnar/shards=4", EngineColumnar, 4, nil, false},
		{"columnar/shards=4/noisy", EngineColumnar, 4, noise, false},
		{"sparse/shards=1", EngineSparse, 1, nil, false},
		{"sparse/shards=4", EngineSparse, 4, nil, false},
		{"sparse/shards=4/noisy", EngineSparse, 4, noise, false},
		{"columnar/shards=1/beep-loss", EngineColumnar, 1, nil, false},
		{"columnar/shards=3/beep-loss", EngineColumnar, 3, nil, false},
		{"sparse/shards=1/beep-loss", EngineSparse, 1, nil, false},
		{"sparse/shards=3/beep-loss", EngineSparse, 3, nil, false},
		// Metrics-enabled rows: recording is atomics into a preallocated
		// bundle, so the steady-state guarantee must hold unchanged.
		{"columnar/shards=1/metrics", EngineColumnar, 1, nil, true},
		{"columnar/shards=4/metrics", EngineColumnar, 4, nil, true},
		{"sparse/shards=4/metrics", EngineSparse, 4, nil, true},
		{"sparse/shards=4/noisy/metrics", EngineSparse, 4, noise, true},
		{"sparse/shards=4/scatter", EngineSparse, 4, nil, false},
		{"sparse/shards=4/scatter/metrics", EngineSparse, 4, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Engine: tc.engine, Shards: tc.shards, Faults: tc.faults}
			if tc.metrics {
				opts.Metrics = &obs.EngineMetrics{}
			}
			var short, long float64
			switch {
			case strings.HasSuffix(tc.name, "/beep-loss"):
				opts.BeepLoss = 0.2
				opts.MaxRounds = shortWake
				short = measureRunAllocs(t, g, stalled, opts)
				opts.MaxRounds = longWake
				long = measureRunAllocs(t, g, stalled, opts)
			case strings.Contains(tc.name, "/scatter"):
				opts.MaxRounds = shortWake
				short = measureRunAllocs(t, dense, scattering, opts)
				var shortScatters uint64
				if tc.metrics {
					shortScatters = opts.Metrics.ScatterExchanges.Value()
				}
				opts.MaxRounds = longWake
				long = measureRunAllocs(t, dense, scattering, opts)
				if tc.metrics {
					// The bundle has counted the short runs and then the
					// long ones, as many of each.
					if extra := opts.Metrics.ScatterExchanges.Value() - 2*shortScatters; extra < longWake-shortWake {
						t.Fatalf("the long runs scattered only %d more times than the short ones, want at least one per extra round", extra)
					}
				}
			default:
				opts.WakeAt = wake(shortWake)
				short = measureRunAllocs(t, g, feedback, opts)
				opts.WakeAt = wake(longWake)
				long = measureRunAllocs(t, g, feedback, opts)
			}
			if d := math.Abs(long - short); d > slack {
				t.Fatalf("%v extra allocations across ~%d extra rounds (short %v, long %v): the round loop allocates in steady state",
					d, longWake-shortWake, short, long)
			}
		})
	}
}
