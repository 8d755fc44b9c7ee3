// Benchmarks regenerating the paper's evaluation artifacts, one (or one
// family) per table/figure. Custom metrics are attached via
// b.ReportMetric: "rounds/run" is the Figure 3 quantity, "beeps/node"
// the Figure 5 / Theorem 6 quantity. The full-sweep tables with the
// paper's exact trial counts are produced by cmd/misbench (or
// experiment.Run); these benchmarks exercise one representative
// configuration per artifact so `go test -bench=.` touches every
// experiment quickly.
package beepmis

import (
	"sync"
	"testing"

	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
)

// benchBeeping runs one simulated execution per iteration and reports
// rounds and beeps-per-node metrics.
func benchBeeping(b *testing.B, g *graph.Graph, spec mis.Spec) {
	b.Helper()
	factory, err := mis.NewFactory(spec)
	if err != nil {
		b.Fatal(err)
	}
	var rounds, beeps float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(g, factory, rng.New(uint64(i)), sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rounds += float64(res.Rounds)
		beeps += res.MeanBeepsPerNode()
	}
	b.ReportMetric(rounds/float64(b.N), "rounds/run")
	b.ReportMetric(beeps/float64(b.N), "beeps/node")
}

// Figure 3 — mean time steps on G(n,1/2) (upper curve: global sweep,
// lower curve: feedback). Representative cell: n = 512.
func BenchmarkFigure3Feedback(b *testing.B) {
	benchBeeping(b, graph.GNP(512, 0.5, rng.New(1)), mis.Spec{Name: mis.NameFeedback})
}

func BenchmarkFigure3GlobalSweep(b *testing.B) {
	benchBeeping(b, graph.GNP(512, 0.5, rng.New(1)), mis.Spec{Name: mis.NameGlobalSweep})
}

// Figure 5 — mean beeps per node on G(n,1/2). Representative cell:
// n = 200 (the figure's largest size).
func BenchmarkFigure5Feedback(b *testing.B) {
	benchBeeping(b, graph.GNP(200, 0.5, rng.New(2)), mis.Spec{Name: mis.NameFeedback})
}

func BenchmarkFigure5GlobalSweep(b *testing.B) {
	benchBeeping(b, graph.GNP(200, 0.5, rng.New(2)), mis.Spec{Name: mis.NameGlobalSweep})
}

// Theorem 1 — the union-of-cliques lower-bound family (k = 12,
// n = 936). Preset schedules pay the log²n penalty here; feedback does
// not.
func BenchmarkTheorem1Feedback(b *testing.B) {
	benchBeeping(b, graph.CliqueFamily(936), mis.Spec{Name: mis.NameFeedback})
}

func BenchmarkTheorem1GlobalSweep(b *testing.B) {
	benchBeeping(b, graph.CliqueFamily(936), mis.Spec{Name: mis.NameGlobalSweep})
}

func BenchmarkTheorem1AfekOriginal(b *testing.B) {
	benchBeeping(b, graph.CliqueFamily(936), mis.Spec{Name: mis.NameAfek})
}

// Theorem 6 — O(1) beeps per node; §5 reports ≈1.1 on rectangular
// grids as well as G(n,1/2).
func BenchmarkTheorem6Grid(b *testing.B) {
	benchBeeping(b, graph.Grid(14, 14), mis.Spec{Name: mis.NameFeedback})
}

// §1/§5 baseline — Luby's algorithm on the Figure 3 workload.
func BenchmarkLubyPermutation(b *testing.B) {
	g := graph.GNP(512, 0.5, rng.New(3))
	var rounds float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mis.Luby(g, mis.LubyPermutation, rng.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		rounds += float64(res.Rounds)
	}
	b.ReportMetric(rounds/float64(b.N), "rounds/run")
}

func BenchmarkLubyProbability(b *testing.B) {
	g := graph.GNP(512, 0.5, rng.New(3))
	var rounds float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mis.Luby(g, mis.LubyProbability, rng.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		rounds += float64(res.Rounds)
	}
	b.ReportMetric(rounds/float64(b.N), "rounds/run")
}

// §6 robustness ablation — update factors away from 2.
func BenchmarkAblateFactor1_5(b *testing.B) {
	benchBeeping(b, graph.GNP(512, 0.5, rng.New(4)),
		mis.Spec{Name: mis.NameFeedback, Feedback: mis.FeedbackConfig{Factor: 1.5}})
}

func BenchmarkAblateFactor3(b *testing.B) {
	benchBeeping(b, graph.GNP(512, 0.5, rng.New(4)),
		mis.Spec{Name: mis.NameFeedback, Feedback: mis.FeedbackConfig{Factor: 3}})
}

// §6 robustness ablation — initial probability away from 1/2.
func BenchmarkAblateInitP16(b *testing.B) {
	benchBeeping(b, graph.GNP(512, 0.5, rng.New(5)),
		mis.Spec{Name: mis.NameFeedback, Feedback: mis.FeedbackConfig{InitialP: 1.0 / 16}})
}

// Beyond-paper robustness — 10% beep loss.
func BenchmarkAblateLoss10(b *testing.B) {
	g := graph.GNP(300, 0.5, rng.New(6))
	factory, err := mis.NewFactory(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		b.Fatal(err)
	}
	var rounds float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(g, factory, rng.New(uint64(i)), sim.Options{BeepLoss: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		rounds += float64(res.Rounds)
	}
	b.ReportMetric(rounds/float64(b.N), "rounds/run")
}

// Engine comparison — the same execution through the sequential
// simulator and the in-process message-passing protocol.
func BenchmarkEngineSimulator(b *testing.B) {
	g := graph.GNP(128, 0.5, rng.New(7))
	factory, err := mis.NewFactory(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(g, factory, rng.New(uint64(i)), sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineConcurrent(b *testing.B) {
	g := graph.GNP(128, 0.5, rng.New(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(g, AlgorithmFeedback, WithSeed(uint64(i)), WithConcurrentEngine()); err != nil {
			b.Fatal(err)
		}
	}
}

// Engine scaling — the columnar engine on large dense graphs, where one
// OR delivers a beep to 64 listeners at once, serial and sharded.
// These benchmarks measure the round loop at n ≥ 10⁵, far beyond the
// paper's n ≤ 1000 evaluation sizes. Graphs are generated once per
// process and the packed adjacency matrix is built outside the timer,
// so the measurement isolates the simulation loop.
var (
	gnp100kOnce sync.Once
	gnp100k     *graph.Graph
	gnp20kOnce  sync.Once
	gnp20k      *graph.Graph

	sparse100kOnce sync.Once
	sparse100k     *graph.Graph
	sparse1MOnce   sync.Once
	sparse1M       *graph.Graph
	rmatOnce       sync.Once
	rmat           *graph.Graph
)

// gnp100kGraph is G(10⁵, 0.05): 2.5·10⁸ edges, average degree 5000 —
// the "millions of beeps per round" regime an edge-by-edge walk crawls
// in.
func gnp100kGraph() *graph.Graph {
	gnp100kOnce.Do(func() { gnp100k = graph.GNP(100000, 0.05, rng.New(10)) })
	return gnp100k
}

// gnp20kDenseGraph is G(2·10⁴, 0.5): the paper's density at 20× its
// largest size.
func gnp20kDenseGraph() *graph.Graph {
	gnp20kOnce.Do(func() { gnp20k = graph.GNP(20000, 0.5, rng.New(11)) })
	return gnp20k
}

// sparseGNPGraph is G(n, 10/n), average degree 10: the sparse regime
// the CSR engine exists for, and solve-sparse's workload at n = 10⁵.
func sparseGNPGraph(once *sync.Once, g **graph.Graph, n int) *graph.Graph {
	once.Do(func() { *g = graph.GNP(n, 10/float64(n), rng.New(12)) })
	return *g
}

// rmatGraph is R-MAT with 2¹⁷ vertices and 2²¹ sampled edges at the
// Graph500 parameters: heavy-tailed degrees, with the hubs at low ids.
func rmatGraph(b *testing.B) *graph.Graph {
	rmatOnce.Do(func() {
		g, err := graph.RMATCSR(1<<17, 1<<21, 0.57, 0.19, 0.19, 0.05, rng.New(13), 1)
		if err != nil {
			b.Fatal(err)
		}
		rmat = g
	})
	return rmat
}

func benchEngine(b *testing.B, g *graph.Graph, engine sim.Engine, shards int) {
	b.Helper()
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.Options{Engine: engine, Bulk: bulk, Shards: shards}
	if engine == sim.EngineColumnar {
		g.Matrix() // build (and cache) the packed rows outside the timer
	}
	var rounds float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(g, factory, rng.New(uint64(i)), opts)
		if err != nil {
			b.Fatal(err)
		}
		rounds += float64(res.Rounds)
	}
	b.ReportMetric(rounds/float64(b.N), "rounds/run")
}

// The columnar engine at one shard measures the round loop itself; the
// sharded variant adds multi-core propagation on top.
func BenchmarkEngineColumnarGNP100k(b *testing.B) {
	benchEngine(b, gnp100kGraph(), sim.EngineColumnar, 1)
}

func BenchmarkEngineColumnarShardedGNP100k(b *testing.B) {
	benchEngine(b, gnp100kGraph(), sim.EngineColumnar, 0)
}

func BenchmarkEngineColumnarGNP20kDense(b *testing.B) {
	benchEngine(b, gnp20kDenseGraph(), sim.EngineColumnar, 1)
}

func BenchmarkEngineColumnarShardedGNP20kDense(b *testing.B) {
	benchEngine(b, gnp20kDenseGraph(), sim.EngineColumnar, 0)
}

// The sparse engine on sparse graphs, serial and sharded: the sharded
// variants fan each large push out by emitter range and merge the
// shards' buffers.
func BenchmarkEngineSparseGNP100k(b *testing.B) {
	benchEngine(b, sparseGNPGraph(&sparse100kOnce, &sparse100k, 100000), sim.EngineSparse, 1)
}

func BenchmarkEngineSparseShardedGNP100k(b *testing.B) {
	benchEngine(b, sparseGNPGraph(&sparse100kOnce, &sparse100k, 100000), sim.EngineSparse, 0)
}

func BenchmarkEngineSparseGNP1M(b *testing.B) {
	benchEngine(b, sparseGNPGraph(&sparse1MOnce, &sparse1M, 1000000), sim.EngineSparse, 1)
}

func BenchmarkEngineSparseShardedGNP1M(b *testing.B) {
	benchEngine(b, sparseGNPGraph(&sparse1MOnce, &sparse1M, 1000000), sim.EngineSparse, 0)
}

func BenchmarkEngineSparseRMAT(b *testing.B) {
	benchEngine(b, rmatGraph(b), sim.EngineSparse, 1)
}

func BenchmarkEngineSparseShardedRMAT(b *testing.B) {
	benchEngine(b, rmatGraph(b), sim.EngineSparse, 0)
}

// Centralised baseline — the trivial sequential scan from §1.
func BenchmarkGreedy(b *testing.B) {
	g := graph.GNP(512, 0.5, rng.New(8))
	var sink bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := mis.Greedy(g)
		sink = sink != set[0]
	}
	_ = sink
}

// Substrate benchmarks — graph generation cost for the two figure
// workloads.
func BenchmarkGenerateGNP(b *testing.B) {
	src := rng.New(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.GNP(512, 0.5, src)
		if g.N() != 512 {
			b.Fatal("bad graph")
		}
	}
}

func BenchmarkGenerateCliqueFamily(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.CliqueFamily(936)
		if g.N() == 0 {
			b.Fatal("bad graph")
		}
	}
}
