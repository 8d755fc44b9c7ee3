package sim

import (
	"fmt"
	"runtime"
	"testing"

	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/obs"
	"beepmis/internal/rng"
)

// TestEngineEquivalenceMultiCore is the parallel-correctness matrix:
// under GOMAXPROCS > 1 — where sharded phases genuinely interleave and
// a races-on-shared-state bug could actually fire — the columnar and
// sparse engines must stay bit-identical to the reference loop at
// every shard count, including deliberately racy ones (3 does not
// divide the word count evenly; 2×GOMAXPROCS oversubscribes the
// cores). The graphs are big enough (n > drawShardMinNodes) that the
// sharded eligible-draw and observe paths run, not just the sharded
// exchanges. The sparse rows at 3 shards are metered, one bundle per
// variant: every variant must fan out at least one sparse exchange, so
// no fault overlay can silently stay serial, and every graph must fan
// out a push by emitter range. The sparse graph's mean degree of 60 is
// what makes the wake-scheduled variants, whose frontiers stay small,
// fan out: at mean degree 20 they planned every exchange serial. CI
// runs this under -race.
func TestEngineEquivalenceMultiCore(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	gmp := runtime.GOMAXPROCS(0)
	shardCounts := []int{1, 3, gmp, 2 * gmp}

	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-5000-sparse", graph.GNP(5000, 0.012, rng.New(21))},
		{"gnp-4500-dense", graph.GNP(4500, 0.08, rng.New(22))},
	}
	crashes := map[int][]int{3: {7, 4400}, 9: {0, 1234, 2345}}
	variants := []struct {
		name string
		opts Options
	}{
		{"pure", Options{}},
		{"crashes", Options{CrashAtRound: crashes}},
		{"staggered-wake", Options{Faults: &fault.Spec{Wake: &fault.Wake{Kind: "uniform", Window: 12}}}},
		{"noisy", Options{Faults: &fault.Spec{Loss: 0.03, Spurious: 0.01}}},
		{"beep-loss", Options{BeepLoss: 0.1}},
		{"outages-reset", Options{Faults: &fault.Spec{Outages: []fault.Outage{
			{Node: 17, From: 4, For: 3},
			{Node: 4321, From: 6, For: 5, Reset: true},
		}}}},
		{"combined", Options{Faults: &fault.Spec{
			Loss:     0.02,
			Spurious: 0.005,
			Wake:     &fault.Wake{Kind: "degree", Window: 8},
			Outages:  []fault.Outage{{Node: 99, From: 5, For: 4, Reset: true}},
		}}},
	}

	for _, tg := range graphs {
		var ran, scatters uint64
		for _, variant := range variants {
			t.Run(tg.name+"/"+variant.name, func(t *testing.T) {
				ran++
				// Plans do not depend on the shard count here, so one
				// metered sparse shard count stands for all of them; the
				// others keep the unmetered pool path raced.
				metered := &obs.EngineMetrics{}
				factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
				if err != nil {
					t.Fatal(err)
				}
				opts := variant.opts
				ref, err := referenceRun(tg.g, factory, rng.New(5), opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, engine := range []Engine{EngineColumnar, EngineSparse} {
					for _, shards := range shardCounts {
						opts.Engine = engine
						opts.Shards = shards
						opts.Bulk = bulk
						opts.Metrics = nil
						if engine == EngineSparse && shards == 3 {
							opts.Metrics = metered
						}
						name := fmt.Sprintf("%v/shards=%d", engine, shards)
						res, err := Run(tg.g, factory, rng.New(5), opts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						assertIdenticalNamed(t, ref, res, "reference", name)
					}
				}
				push, pull, serial := metered.PushExchanges.Value(), metered.PullExchanges.Value(), metered.SerialExchanges.Value()
				if push+pull == serial {
					t.Fatalf("no sparse exchange fanned out (%d push, %d pull, %d serial exchanges)", push, pull, serial)
				}
				scatters += metered.ScatterExchanges.Value()
			})
		}
		if ran > 0 && scatters == 0 {
			t.Fatalf("%s: no sparse push fanned out by emitter range", tg.name)
		}
	}
}

// TestEffectiveShards pins the one resolution rule everything keys on:
// 0 (and any non-positive value) means GOMAXPROCS, explicit counts
// pass through.
func TestEffectiveShards(t *testing.T) {
	old := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(old)
	for in, want := range map[int]int{0: 3, -1: 3, 1: 1, 2: 2, 7: 7} {
		if got := EffectiveShards(in); got != want {
			t.Fatalf("EffectiveShards(%d) = %d, want %d under GOMAXPROCS=3", in, got, want)
		}
	}
}

// TestShardPoolPartition pins the pool's partition: contiguous,
// covering [0, words), degenerating to nil (serial) when a single
// chunk suffices, and never more chunks than words.
func TestShardPoolPartition(t *testing.T) {
	if pool := newShardPool(100, 1); pool != nil {
		t.Fatal("shards=1 must not build a pool")
	}
	if pool := newShardPool(1, 8); pool != nil {
		t.Fatal("one word cannot be partitioned; want nil pool")
	}
	for _, tc := range []struct{ words, shards int }{
		{100, 4}, {97, 3}, {16, 16}, {5, 8}, {1 << 14, 7},
	} {
		pool := newShardPool(tc.words, tc.shards)
		if pool == nil {
			t.Fatalf("words=%d shards=%d: no pool", tc.words, tc.shards)
		}
		covered := make([]int, tc.words)
		pool.run(func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		})
		pool.close()
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("words=%d shards=%d: word %d covered %d times", tc.words, tc.shards, i, c)
			}
		}
		if got := pool.shards(); got > tc.shards || got > tc.words || got < 2 {
			t.Fatalf("words=%d shards=%d: pool has %d chunks", tc.words, tc.shards, got)
		}
	}
}
