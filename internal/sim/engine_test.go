package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"beepmis/internal/beep"
	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
)

// engineRun is one engine configuration of the equivalence matrix.
type engineRun struct {
	name string
	res  *Result
}

// engineVariant is one way to run the round loop: an adjacency backend,
// driving either the per-node automata through the adapter or the
// algorithm's bulk kernel.
type engineVariant struct {
	engine Engine
	kernel bool
}

func (v engineVariant) String() string {
	if v.kernel {
		return v.engine.String() + "-kernel"
	}
	return v.engine.String() + "-adapter"
}

// engineVariants lists every engineVariant.
var engineVariants = []engineVariant{
	{EngineColumnar, false}, {EngineSparse, false}, {EngineColumnar, true}, {EngineSparse, true},
}

// runAllEngines executes the same configuration on the per-node
// reference loop and on the round loop over both adjacency backends —
// the columnar and sparse engines, each driving the per-node automata
// through the adapter kernel and (when the algorithm has one) the bulk
// kernel, at shard counts 1, 3, and GOMAXPROCS — and returns the
// labelled results. The first entry is the reference.
func runAllEngines(t *testing.T, g *graph.Graph, spec mis.Spec, seed uint64, opts Options) []engineRun {
	t.Helper()
	factory, bulk, err := mis.NewFactories(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceRun(g, factory, rng.New(seed), opts)
	if err != nil {
		t.Fatalf("reference loop: %v", err)
	}
	runs := []engineRun{{"reference", ref}}
	for _, ev := range engineVariants {
		if ev.kernel && bulk == nil {
			continue
		}
		opts.Engine, opts.Bulk = ev.engine, nil
		if ev.kernel {
			opts.Bulk = bulk
		}
		for _, shards := range []int{1, 3, 0} {
			opts.Shards = shards
			name := fmt.Sprintf("%v/shards=%d", ev, shards)
			res, err := Run(g, factory, rng.New(seed), opts)
			if err != nil {
				t.Fatalf("%s engine: %v", name, err)
			}
			runs = append(runs, engineRun{name, res})
		}
	}
	return runs
}

// assertAllIdentical checks every run of an equivalence matrix against
// the first (reference) entry.
func assertAllIdentical(t *testing.T, runs []engineRun) {
	t.Helper()
	for _, run := range runs[1:] {
		assertIdenticalNamed(t, runs[0].res, run.res, runs[0].name, run.name)
	}
}

func assertIdenticalNamed(t *testing.T, a, b *Result, aName, bName string) {
	t.Helper()
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds differ: %s %d, %s %d", aName, a.Rounds, bName, b.Rounds)
	}
	if a.TotalBeeps != b.TotalBeeps {
		t.Fatalf("total beeps differ: %s %d, %s %d", aName, a.TotalBeeps, bName, b.TotalBeeps)
	}
	if a.JoinAnnouncements != b.JoinAnnouncements {
		t.Fatalf("join announcements differ: %s %d, %s %d",
			aName, a.JoinAnnouncements, bName, b.JoinAnnouncements)
	}
	if a.PersistentBeeps != b.PersistentBeeps {
		t.Fatalf("persistent beeps differ: %s %d, %s %d",
			aName, a.PersistentBeeps, bName, b.PersistentBeeps)
	}
	if a.Terminated != b.Terminated {
		t.Fatalf("termination differs: %s %v, %s %v", aName, a.Terminated, bName, b.Terminated)
	}
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] {
			t.Fatalf("MIS membership differs at vertex %d (%s vs %s)", v, aName, bName)
		}
		if a.States[v] != b.States[v] {
			t.Fatalf("state differs at vertex %d: %s %v, %s %v",
				v, aName, a.States[v], bName, b.States[v])
		}
		if a.Beeps[v] != b.Beeps[v] {
			t.Fatalf("beep count differs at vertex %d: %s %d, %s %d",
				v, aName, a.Beeps[v], bName, b.Beeps[v])
		}
	}
}

func TestEngineEquivalencePureModel(t *testing.T) {
	rmat, err := graph.RMAT(128, 1200, 0.57, 0.19, 0.19, 0.05, rng.New(31), 0)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat-128", rmat},
		{"gnp-200", graph.GNP(200, 0.5, rng.New(1))},
		{"gnp-sparse-300", graph.GNP(300, 0.02, rng.New(2))},
		{"grid-13x13", graph.Grid(13, 13)},
		{"complete-100", graph.Complete(100)},
		{"cliquefamily-343", graph.CliqueFamily(343)},
		{"unitdisk-250", graph.UnitDisk(250, 0.12, rng.New(3))},
		{"path-65", graph.Path(65)},
		{"isolated-70", graph.Empty(70)},
	}
	specs := []mis.Spec{
		{Name: mis.NameFeedback},
		{Name: mis.NameGlobalSweep},
		{Name: mis.NameAfek},
	}
	for _, tg := range graphs {
		for _, spec := range specs {
			for seed := uint64(0); seed < 3; seed++ {
				runs := runAllEngines(t, tg.g, spec, seed, Options{})
				assertAllIdentical(t, runs)
				if err := graph.VerifyMIS(tg.g, runs[0].res.InMIS); err != nil {
					t.Fatalf("%s/%s/seed=%d: invalid MIS: %v", tg.name, spec.Name, seed, err)
				}
			}
		}
	}
}

// TestEngineEquivalenceWakeup covers the persistent-beep path: staggered
// wake-ups make MIS members keep beeping, which both engines must
// deliver identically.
func TestEngineEquivalenceWakeup(t *testing.T) {
	g := graph.GNP(150, 0.3, rng.New(5))
	wakeSrc := rng.New(99)
	wake := make([]int, g.N())
	for v := range wake {
		wake[v] = 1 + wakeSrc.Intn(20)
	}
	for seed := uint64(0); seed < 3; seed++ {
		runs := runAllEngines(t, g, mis.Spec{Name: mis.NameFeedback}, seed, Options{WakeAt: wake})
		assertAllIdentical(t, runs)
		if runs[0].res.PersistentBeeps == 0 {
			t.Fatal("wake-up run produced no persistent beeps; test is not covering the persist path")
		}
	}
}

// TestEngineEquivalenceCrashes covers mid-run node crashes.
func TestEngineEquivalenceCrashes(t *testing.T) {
	g := graph.GNP(120, 0.4, rng.New(6))
	crashes := map[int][]int{2: {0, 5, 17}, 4: {40, 41}}
	assertAllIdentical(t, runAllEngines(t, g, mis.Spec{Name: mis.NameFeedback}, 7, Options{CrashAtRound: crashes}))
}

// TestEngineAutoMatchesForced pins the auto engine to the same results
// as every forced configuration.
func TestEngineAutoMatchesForced(t *testing.T) {
	g := graph.GNP(180, 0.5, rng.New(8))
	factory, err := mis.NewFactory(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Run(g, factory, rng.New(11), Options{Engine: EngineAuto})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runAllEngines(t, g, mis.Spec{Name: mis.NameFeedback}, 11, Options{}) {
		assertIdenticalNamed(t, auto, run.res, "auto", run.name)
	}
}

// TestEngineAutoUpgradesToColumnar pins the auto heuristic: with a bulk
// kernel supplied, auto takes the columnar engine on bitset-worthwhile
// graphs — and its results stay identical to every other engine.
func TestEngineAutoUpgradesToColumnar(t *testing.T) {
	g := graph.GNP(180, 0.5, rng.New(8))
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	if got := ResolveEngine(g, Options{Bulk: bulk}); got != EngineColumnar {
		t.Fatalf("ResolveEngine = %v, want columnar", got)
	}
	auto, err := Run(g, factory, rng.New(11), Options{Engine: EngineAuto, Bulk: bulk})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runAllEngines(t, g, mis.Spec{Name: mis.NameFeedback}, 11, Options{}) {
		assertIdenticalNamed(t, auto, run.res, "auto+bulk", run.name)
	}
}

// TestEngineColumnarWithoutBulk pins that a columnar pin without a
// kernel — once refused — runs the per-node automata through the
// adapter, identically to the reference loop, and that Shards misuse is
// still refused.
func TestEngineColumnarWithoutBulk(t *testing.T) {
	g := graph.GNP(50, 0.5, rng.New(1))
	factory, err := mis.NewFactory(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	col, err := Run(g, factory, rng.New(1), Options{Engine: EngineColumnar})
	if err != nil {
		t.Fatalf("columnar without Bulk: %v", err)
	}
	ref, err := referenceRun(g, factory, rng.New(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalNamed(t, ref, col, "reference", "columnar-adapter")
	if _, err := Run(g, factory, rng.New(1), Options{Shards: -1}); err == nil {
		t.Fatal("negative Shards was silently accepted")
	}
	// The fixed-probability strawman has no kernel: NewFactories returns
	// a nil bulk, and every engine drives its automata.
	fixedFactory, fixedBulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFixed, FixedP: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if fixedBulk != nil {
		t.Fatal("fixed-probability algorithm unexpectedly has a bulk kernel; update this test")
	}
	for _, engine := range []Engine{EngineAuto, EngineColumnar, EngineSparse} {
		if _, err := Run(g, fixedFactory, rng.New(1), Options{Engine: engine, MaxRounds: 200}); err != nil && !errors.Is(err, ErrTooManyRounds) {
			t.Fatalf("engine %v with nil bulk: %v", engine, err)
		}
	}
}

// TestEngineBitsetRunsBeepLoss pins that beep loss runs under every
// engine pin, the legacy bitset and scalar names included (the bitset
// pin used to refuse it), with results identical to the reference.
func TestEngineBitsetRunsBeepLoss(t *testing.T) {
	g := graph.GNP(50, 0.5, rng.New(1))
	factory, err := mis.NewFactory(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceRun(g, factory, rng.New(1), Options{BeepLoss: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineAuto, EngineScalar, EngineBitset, EngineColumnar, EngineSparse} {
		res, err := Run(g, factory, rng.New(1), Options{Engine: engine, BeepLoss: 0.1})
		if err != nil {
			t.Fatalf("engine %v with loss: %v", engine, err)
		}
		assertIdenticalNamed(t, want, res, "reference", engine.String())
	}
}

// TestEngineEquivalenceBeepLoss runs the equivalence matrix under beep
// loss, alone and composed with the features that change who emits
// (persistent MIS beeps under wake-up) or what is heard afterwards
// (channel noise).
func TestEngineEquivalenceBeepLoss(t *testing.T) {
	g := graph.GNP(150, 0.3, rng.New(5))
	wakeSrc := rng.New(98)
	wake := make([]int, g.N())
	for v := range wake {
		wake[v] = 1 + wakeSrc.Intn(12)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opts Options
	}{
		{"dense", g, Options{BeepLoss: 0.3}},
		{"sparse", graph.GNP(400, 0.01, rng.New(6)), Options{BeepLoss: 0.5}},
		{"wake", g, Options{BeepLoss: 0.2, WakeAt: wake}},
		{"noise", g, Options{BeepLoss: 0.2, Faults: &fault.Spec{Loss: 0.05, Spurious: 0.02}}},
	} {
		for seed := uint64(0); seed < 2; seed++ {
			for _, spec := range []mis.Spec{{Name: mis.NameFeedback}, {Name: mis.NameGlobalSweep}} {
				opts := tc.opts
				opts.MaxRounds = 20000
				assertAllIdentical(t, runAllEngines(t, tc.g, spec, seed, opts))
			}
		}
	}
}

// TestRunEmptyGraphsUnderAuto pins the degenerate graphs: zero and one
// nodes terminate under auto, with the lone node in the set.
func TestRunEmptyGraphsUnderAuto(t *testing.T) {
	for n := 0; n <= 1; n++ {
		res, err := Run(graph.Empty(n), feedbackFactory(t), rng.New(3), Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.Terminated || len(res.InMIS) != n || (n == 0 && res.Rounds != 0) {
			t.Fatalf("n=%d: %+v", n, res)
		}
		if n == 1 && !res.InMIS[0] {
			t.Fatal("lone node not in the set")
		}
	}
}

func TestBitsetWorthwhile(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"empty", graph.Empty(0), false},
		{"tiny-sparse", graph.Path(100), true},     // ≤1024 vertices: always
		{"small-dense", graph.Complete(800), true}, // ≤1024 vertices: always
		{"mid-dense", graph.GNP(4000, 0.5, rng.New(1)), true},
		{"mid-sparse", graph.GNP(5000, 0.001, rng.New(2)), false}, // deg ≈ 5 « words/2 ≈ 39
	}
	for _, tc := range tests {
		if got := bitsetWorthwhile(tc.g.N(), tc.g.M()); got != tc.want {
			t.Errorf("%s: bitsetWorthwhile = %v, want %v (n=%d avgdeg=%.1f)",
				tc.name, got, tc.want, tc.g.N(), tc.g.AvgDegree())
		}
	}
}

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
		ok   bool
	}{
		{"auto", EngineAuto, true},
		{"", EngineAuto, true},
		{"scalar", EngineScalar, true},
		{"bitset", EngineBitset, true},
		{"columnar", EngineColumnar, true},
		{"sparse", EngineSparse, true},
		{"simd", EngineAuto, false},
	} {
		got, err := ParseEngine(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, e := range []Engine{EngineAuto, EngineScalar, EngineBitset, EngineColumnar, EngineSparse} {
		rt, err := ParseEngine(e.String())
		if err != nil || rt != e {
			t.Errorf("round-trip %v failed: %v, %v", e, rt, err)
		}
	}
}

// TestResolveEngine pins the auto heuristic's routing and the legacy
// pins' canonical engines: the matrix when it fits the budget and the
// graph is dense enough, the CSR otherwise — whatever the kernel, the
// loss setting, or the CSR's own size.
func TestResolveEngine(t *testing.T) {
	_, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	dense := graph.GNP(2000, 0.5, rng.New(1))    // matrix 512 KB, dense
	sparse := graph.GNP(5000, 0.001, rng.New(2)) // deg ≈ 5 « words/2
	tests := []struct {
		name string
		g    *graph.Graph
		opts Options
		want Engine
	}{
		{"pin wins", sparse, Options{Engine: EngineColumnar}, EngineColumnar},
		{"scalar pin runs sparse", dense, Options{Engine: EngineScalar}, EngineSparse},
		{"bitset pin runs columnar", sparse, Options{Engine: EngineBitset}, EngineColumnar},
		{"dense no kernel", dense, Options{}, EngineColumnar},
		{"dense kernel", dense, Options{Bulk: bulk}, EngineColumnar},
		{"dense with loss", dense, Options{BeepLoss: 0.1}, EngineColumnar},
		{"sparse under budget", sparse, Options{}, EngineSparse},
		{"empty", graph.Empty(0), Options{}, EngineSparse},
		{"single node", graph.Empty(1), Options{}, EngineColumnar},
	}
	for _, tc := range tests {
		if got := ResolveEngine(tc.g, tc.opts); got != tc.want {
			t.Errorf("%s: ResolveEngine = %v, want %v", tc.name, got, tc.want)
		}
	}
	// The budget rows, by counts: the matrix of 2¹⁷ nodes is exactly
	// DefaultMemoryBudget, and one more node puts it over.
	for _, tc := range []struct {
		name string
		n, m int
		want Engine
	}{
		{"matrix exactly at budget", budgetNodes, budgetEdges, EngineColumnar},
		{"matrix one row over budget", budgetNodes + 1, budgetEdges, EngineSparse},
		{"at budget but too sparse", budgetNodes, budgetNodes, EngineSparse},
	} {
		if got := ResolveEngineFromCounts(tc.n, tc.m); got != tc.want {
			t.Errorf("%s: ResolveEngineFromCounts(%d, %d) = %v, want %v", tc.name, tc.n, tc.m, got, tc.want)
		}
	}
}

// budgetNodes is the largest node count whose packed matrix fits
// DefaultMemoryBudget (2¹⁷ rows of 2¹¹ words), and budgetEdges is dense
// enough for the matrix there and one node past it, so the budget
// alone decides between them.
const (
	budgetNodes = 1 << 17
	budgetEdges = 1 << 27
)

// TestEngineAutoRoutesSparseOverBudget: a graph dense enough for the
// matrix but one node past the 2 GiB budget resolves to the sparse
// engine, and the auto sparse path runs end to end bit-identical to
// the reference loop. (An over-budget graph that dense has 2²⁷ edges,
// so the run uses a graph that routes sparse by density instead; the
// round loop is the same.)
func TestEngineAutoRoutesSparseOverBudget(t *testing.T) {
	if !bitsetWorthwhile(budgetNodes+1, budgetEdges) {
		t.Fatal("the over-budget counts are too sparse to test the budget")
	}
	if got := ResolveEngineFromCounts(budgetNodes+1, budgetEdges); got != EngineSparse {
		t.Fatalf("ResolveEngineFromCounts = %v, want sparse (matrix %d B over budget %d)",
			got, graph.MatrixBytes(budgetNodes+1), DefaultMemoryBudget)
	}
	g := graph.GNP(3000, 0.004, rng.New(3))
	if got := ResolveEngine(g, Options{}); got != EngineSparse {
		t.Fatalf("ResolveEngine = %v, want sparse", got)
	}
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Run(g, factory, rng.New(11), Options{Bulk: bulk})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceRun(g, factory, rng.New(11), Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalNamed(t, ref, auto, "reference", "auto-sparse")
}

// TestEnginesUnderTraceHook checks the per-round snapshots agree between
// the reference loop and every engine configuration, not just the final
// results.
func TestEnginesUnderTraceHook(t *testing.T) {
	g := graph.GNP(90, 0.3, rng.New(4))
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	type roundView struct {
		beeped []bool
		states []beep.State
		probs  []float64
		active int
	}
	capture := func(run func(Options) (*Result, error)) []roundView {
		var views []roundView
		_, err := run(Options{
			OnRound: func(s Snapshot) {
				views = append(views, roundView{
					beeped: append([]bool(nil), s.Beeped...),
					states: append([]beep.State(nil), s.States...),
					probs:  append([]float64(nil), s.Probabilities...),
					active: s.Active,
				})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return views
	}
	want := capture(func(opts Options) (*Result, error) { return referenceRun(g, factory, rng.New(21), opts) })
	for _, engine := range []Engine{EngineColumnar, EngineSparse} {
		for _, kernel := range []beep.BulkFactory{nil, bulk} {
			name := fmt.Sprintf("%v/kernel=%v", engine, kernel != nil)
			got := capture(func(opts Options) (*Result, error) {
				opts.Engine, opts.Bulk = engine, kernel
				return Run(g, factory, rng.New(21), opts)
			})
			if len(got) != len(want) {
				t.Fatalf("%s: %d rounds, reference %d", name, len(got), len(want))
			}
			for r := range want {
				if got[r].active != want[r].active {
					t.Fatalf("%s: round %d active %d, reference %d", name, r+1, got[r].active, want[r].active)
				}
				for v := range want[r].beeped {
					if got[r].beeped[v] != want[r].beeped[v] || got[r].states[v] != want[r].states[v] {
						t.Fatalf("%s: round %d vertex %d snapshot differs from the reference", name, r+1, v)
					}
					if got[r].probs[v] != want[r].probs[v] {
						t.Fatalf("%s: round %d vertex %d probability %v, reference %v",
							name, r+1, v, got[r].probs[v], want[r].probs[v])
					}
				}
			}
		}
	}
}

// TestRunCSREquivalence runs a graph built straight into compressed
// sparse rows (CSR) by the R-MAT generator under every engine spelling —
// the legacy pins, auto, and both backends with and without a kernel at
// several shard counts — and requires every run to equal the per-node
// reference loop and to return a maximal independent set.
func TestRunCSREquivalence(t *testing.T) {
	g, err := graph.RMAT(128, 1200, 0.57, 0.19, 0.19, 0.05, rng.New(31), 0)
	if err != nil {
		t.Fatal(err)
	}
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 5
	want, err := referenceRun(g, factory, rng.New(seed), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		engine Engine
		shards []int
		bulk   bool
	}{
		{EngineScalar, []int{0}, false},
		{EngineBitset, []int{0}, false},
		{EngineSparse, []int{1, 3, 0}, false}, // per-node adapter path
		{EngineColumnar, []int{1, 3, 0}, true},
		{EngineSparse, []int{1, 3, 0}, true},
		{EngineAuto, []int{0}, true},
	} {
		for _, shards := range tc.shards {
			name := fmt.Sprintf("%v/shards=%d/bulk=%v", tc.engine, shards, tc.bulk)
			t.Run(name, func(t *testing.T) {
				opts := Options{Engine: tc.engine, Shards: shards}
				if tc.bulk {
					opts.Bulk = bulk
				}
				got, err := Run(g, factory, rng.New(seed), opts)
				if err != nil {
					t.Fatal(err)
				}
				assertIdenticalNamed(t, want, got, "reference", name)
				if err := graph.VerifyMIS(g, got.InMIS); err != nil {
					t.Fatalf("result is not a maximal independent set: %v", err)
				}
			})
		}
	}
}

// TestRunValidation: Run rejects invalid options before touching the
// round loop.
func TestRunValidation(t *testing.T) {
	g := graph.Path(4)
	factory, _, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{BeepLoss: -0.1},
		{BeepLoss: 1},
		{Shards: -1},
		{Engine: Engine(99)},
		{WakeAt: []int{1, 1}}, // wrong length for n=4
		{CrashAtRound: map[int][]int{1: {99}}},
	}
	for i, opts := range bad {
		if _, err := Run(g, factory, rng.New(1), opts); err == nil {
			t.Errorf("case %d: invalid options %+v did not error", i, opts)
		}
	}
}

// TestBeepLossNodeBound: beep loss packs node ids into 21 bits of its
// stream ids, like channel noise, so a lossy run on a wider graph is
// refused up front with the bound named — and a loss-free run on the
// same graph is not.
func TestBeepLossNodeBound(t *testing.T) {
	b := graph.NewCSRBuilder(fault.MaxChannelNodes + 1)
	if err := b.FinishCounts(); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finish(1)
	if err != nil {
		t.Fatal(err)
	}
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(g, factory, rng.New(1), Options{BeepLoss: 0.1, Bulk: bulk})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(fault.MaxChannelNodes)) {
		t.Fatalf("beep loss on %d nodes: err %v, want the %d-node bound named", g.N(), err, fault.MaxChannelNodes)
	}
	if _, err := Run(g, factory, rng.New(1), Options{MaxRounds: 1, Bulk: bulk}); err != nil && !errors.Is(err, ErrTooManyRounds) {
		t.Fatalf("loss-free run on %d nodes: %v", g.N(), err)
	}
}
