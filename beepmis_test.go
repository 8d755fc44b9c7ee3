package beepmis

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSolveAllAlgorithms(t *testing.T) {
	g := GNP(100, 0.5, 1)
	for _, algo := range Algorithms() {
		res, err := Solve(g, algo, WithSeed(7))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := Verify(g, res.InMIS); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.SetSize() == 0 {
			t.Fatalf("%s: empty MIS on non-empty graph", algo)
		}
	}
}

func TestSolveUnknownAlgorithm(t *testing.T) {
	if _, err := Solve(GNP(5, 0.5, 1), Algorithm("nope")); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSolveDeterministicAcrossEngines(t *testing.T) {
	g := GNP(60, 0.5, 2)
	a, err := Solve(g, AlgorithmFeedback, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, AlgorithmFeedback, WithSeed(9), WithConcurrentEngine())
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.TotalBeeps != b.TotalBeeps {
		t.Fatalf("engines disagree: %+v vs %+v", a, b)
	}
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] {
			t.Fatalf("vertex %d differs across engines", v)
		}
	}
}

func TestSolveFeedbackConfig(t *testing.T) {
	g := GNP(80, 0.5, 3)
	res, err := Solve(g, AlgorithmFeedback, WithSeed(4), WithFeedbackConfig(FeedbackConfig{Factor: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.InMIS); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(g, AlgorithmFeedback, WithFeedbackConfig(FeedbackConfig{Factor: 0.5})); err == nil {
		t.Fatal("invalid feedback config accepted")
	}
}

func TestSolveMaxRounds(t *testing.T) {
	// K_40 cannot finish in 3 rounds with the sweep schedule (p=1 rounds
	// produce no joins); the cap must surface as an error.
	if _, err := Solve(Complete(40), AlgorithmGlobalSweep, WithMaxRounds(3)); err == nil {
		t.Fatal("round cap not enforced")
	}
}

func TestSolveLubyReportsBits(t *testing.T) {
	res, err := Solve(GNP(50, 0.5, 5), AlgorithmLubyPermutation, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.MessageBits == 0 {
		t.Fatal("Luby run reported no message bits")
	}
	if res.TotalBeeps != 0 {
		t.Fatal("Luby is not a beeping algorithm")
	}
}

func TestGraphConstructors(t *testing.T) {
	if g := GNP(10, 0, 1); g.N() != 10 || g.M() != 0 {
		t.Fatal("GNP")
	}
	if g := GNP(50, math.NaN(), 1); g.N() != 50 || g.M() != 0 {
		t.Fatalf("GNP(50, NaN) = %v, want 50 isolated vertices", g)
	}
	if g := Grid(3, 3); g.N() != 9 {
		t.Fatal("Grid")
	}
	if g := Complete(5); g.M() != 10 {
		t.Fatal("Complete")
	}
	if g := CliqueFamily(64); g.N() == 0 {
		t.Fatal("CliqueFamily")
	}
	if g := UnitDisk(20, 0.3, 1); g.N() != 20 {
		t.Fatal("UnitDisk")
	}
	b := NewGraphBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g := b.Build(); g.M() != 1 {
		t.Fatal("builder")
	}
}

func TestEdgeListFacade(t *testing.T) {
	g := GNP(20, 0.3, 6)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatal("edge list round trip")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{InMIS: []bool{true, false, true, false}, TotalBeeps: 8}
	if r.SetSize() != 2 {
		t.Fatal("SetSize")
	}
	if r.MeanBeepsPerNode() != 2 {
		t.Fatal("MeanBeepsPerNode")
	}
	empty := &Result{}
	if empty.MeanBeepsPerNode() != 0 {
		t.Fatal("empty mean")
	}
}

func TestSolveGreedyNoRounds(t *testing.T) {
	res, err := Solve(Complete(10), AlgorithmGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || res.SetSize() != 1 {
		t.Fatalf("greedy result %+v", res)
	}
}

func TestSolveConcurrentMaxRounds(t *testing.T) {
	// The round cap must also bind on the concurrent engine.
	_, err := Solve(Complete(30), AlgorithmGlobalSweep, WithMaxRounds(2), WithConcurrentEngine())
	if err == nil {
		t.Fatal("concurrent engine ignored the round cap")
	}
}

func TestSolveMetivier(t *testing.T) {
	g := GNP(70, 0.4, 9)
	res, err := Solve(g, AlgorithmMetivier, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.InMIS); err != nil {
		t.Fatal(err)
	}
	if res.MessageBits == 0 || res.Rounds == 0 {
		t.Fatalf("metivier result incomplete: %+v", res)
	}
}

func TestSolveZeroVertexGraph(t *testing.T) {
	for _, algo := range Algorithms() {
		res, err := Solve(Complete(0), algo, WithSeed(1))
		if err != nil {
			t.Fatalf("%s on empty graph: %v", algo, err)
		}
		if res.SetSize() != 0 {
			t.Fatalf("%s found vertices in the empty graph", algo)
		}
	}
}

// TestSolveWithMetrics: the telemetry bundle records the run without
// changing it, and accumulates across runs when shared.
func TestSolveWithMetrics(t *testing.T) {
	g := GNP(90, 0.4, 6)
	plain, err := Solve(g, AlgorithmFeedback, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	m := &EngineMetrics{}
	res, err := Solve(g, AlgorithmFeedback, WithSeed(11), WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != plain.Rounds || res.TotalBeeps != plain.TotalBeeps {
		t.Fatalf("metrics changed the result: %+v vs %+v", res, plain)
	}
	if got := m.Rounds.Value(); got != uint64(res.Rounds) {
		t.Fatalf("metrics rounds %d, want %d", got, res.Rounds)
	}
	if m.Runs.Value() != 1 {
		t.Fatalf("metrics runs %d, want 1", m.Runs.Value())
	}
	totals := m.PhaseTotals()
	if totals["propagate"] <= 0 || totals["eligible_draw"] <= 0 {
		t.Fatalf("phase totals recorded no time: %v", totals)
	}
	// The same bundle keeps counting across a second run.
	if _, err := Solve(g, AlgorithmFeedback, WithSeed(12), WithMetrics(m)); err != nil {
		t.Fatal(err)
	}
	if m.Runs.Value() != 2 {
		t.Fatalf("shared bundle runs %d, want 2", m.Runs.Value())
	}
	// Non-simulator paths accept the option and leave the bundle alone.
	idle := &EngineMetrics{}
	if _, err := Solve(g, AlgorithmGreedy, WithMetrics(idle)); err != nil {
		t.Fatal(err)
	}
	if idle.Runs.Value() != 0 || idle.Rounds.Value() != 0 {
		t.Fatalf("greedy touched the metrics bundle: runs=%d rounds=%d", idle.Runs.Value(), idle.Rounds.Value())
	}
}
