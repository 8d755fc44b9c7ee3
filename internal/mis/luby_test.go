package mis

import (
	"testing"
	"testing/quick"

	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

func TestLubyVariantsProduceMIS(t *testing.T) {
	src := rng.New(1)
	graphs := map[string]*graph.Graph{
		"gnp-dense":  graph.GNP(80, 0.5, src),
		"gnp-sparse": graph.GNP(200, 0.02, src),
		"complete":   graph.Complete(40),
		"grid":       graph.Grid(8, 9),
		"star":       graph.Star(30),
		"path":       graph.Path(50),
		"cliques":    graph.CliqueFamily(500),
		"empty":      graph.Empty(25),
	}
	for name, g := range graphs {
		for _, variant := range []LubyVariant{LubyPermutation, LubyProbability} {
			res, err := Luby(g, variant, rng.New(7))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, variant, err)
			}
			if err := graph.VerifyMIS(g, res.InMIS); err != nil {
				t.Fatalf("%s/%v: invalid MIS: %v", name, variant, err)
			}
			if g.N() > 0 && res.Rounds < 1 {
				t.Fatalf("%s/%v: rounds = %d", name, variant, res.Rounds)
			}
		}
	}
}

func TestLubyCompleteGraphSingleton(t *testing.T) {
	g := graph.Complete(25)
	for _, variant := range []LubyVariant{LubyPermutation, LubyProbability} {
		res, err := Luby(g, variant, rng.New(2))
		if err != nil {
			t.Fatal(err)
		}
		count := len(graph.SetToList(res.InMIS))
		if count != 1 {
			t.Fatalf("%v: MIS of K_25 has %d vertices", variant, count)
		}
	}
}

func TestLubyPermutationOneRoundOnComplete(t *testing.T) {
	// On a complete graph the unique minimum wins immediately and
	// everyone else retires: exactly one round.
	res, err := Luby(graph.Complete(30), LubyPermutation, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
}

func TestLubyEmptyGraphAllJoin(t *testing.T) {
	res, err := Luby(graph.Empty(10), LubyPermutation, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for v, in := range res.InMIS {
		if !in {
			t.Fatalf("isolated vertex %d not in MIS", v)
		}
	}
	if res.Messages != 0 || res.Bits != 0 {
		t.Fatal("edgeless graph should exchange no messages")
	}
}

func TestLubyZeroVertices(t *testing.T) {
	res, err := Luby(graph.Empty(0), LubyProbability, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 {
		t.Fatalf("rounds = %d on empty input", res.Rounds)
	}
}

func TestLubyUnknownVariant(t *testing.T) {
	if _, err := Luby(graph.Empty(1), LubyVariant(99), rng.New(1)); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestLubyDeterminism(t *testing.T) {
	g := graph.GNP(60, 0.3, rng.New(6))
	a, err := Luby(g, LubyPermutation, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Luby(g, LubyPermutation, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Fatal("same seed gave different executions")
	}
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] {
			t.Fatal("same seed gave different sets")
		}
	}
}

func TestLubyMessagesCounted(t *testing.T) {
	g := graph.Complete(10)
	res, err := Luby(g, LubyPermutation, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	// One round on K_10: 10 nodes × 9 neighbours value messages, plus 9
	// join announcements from the winner.
	if res.Messages != 90+9 {
		t.Fatalf("messages = %d, want 99", res.Messages)
	}
	if res.Bits != 90*64+9 {
		t.Fatalf("bits = %d, want %d", res.Bits, 90*64+9)
	}
}

func TestLubyPropertyRandomGraphs(t *testing.T) {
	src := rng.New(9)
	f := func(nSeed, pSeed, algoSeed uint8) bool {
		n := int(nSeed%50) + 1
		p := float64(pSeed%10) / 10
		g := graph.GNP(n, p, src)
		variant := LubyPermutation
		if algoSeed%2 == 0 {
			variant = LubyProbability
		}
		res, err := Luby(g, variant, rng.New(uint64(algoSeed)+100))
		if err != nil {
			return false
		}
		return graph.VerifyMIS(g, res.InMIS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLubyVariantString(t *testing.T) {
	if LubyPermutation.String() != "luby-permutation" {
		t.Fatal(LubyPermutation.String())
	}
	if LubyProbability.String() != "luby-probability" {
		t.Fatal(LubyProbability.String())
	}
	if LubyVariant(42).String() == "" {
		t.Fatal("unknown variant should still stringify")
	}
}

func TestGreedyMIS(t *testing.T) {
	src := rng.New(10)
	for _, g := range []*graph.Graph{
		graph.GNP(100, 0.4, src),
		graph.Complete(20),
		graph.Grid(5, 5),
		graph.Empty(10),
		graph.Star(15),
		graph.Empty(0),
	} {
		set := Greedy(g)
		if err := graph.VerifyMIS(g, set); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
	}
}

func TestGreedyDeterministic(t *testing.T) {
	g := graph.GNP(50, 0.3, rng.New(11))
	a, b := Greedy(g), Greedy(g)
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("Greedy is not deterministic")
		}
	}
}

func TestGreedyFirstVertexAlwaysIn(t *testing.T) {
	g := graph.Complete(5)
	set := Greedy(g)
	if !set[0] {
		t.Fatal("vertex 0 must enter the set on a fresh scan")
	}
	for v := 1; v < 5; v++ {
		if set[v] {
			t.Fatalf("vertex %d in MIS of complete graph alongside 0", v)
		}
	}
}
