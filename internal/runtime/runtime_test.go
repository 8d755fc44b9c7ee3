package runtime

import (
	"errors"
	"testing"

	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
)

func TestRunProducesMIS(t *testing.T) {
	src := rng.New(1)
	f, err := mis.NewFeedback(mis.FeedbackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"gnp":      graph.GNP(60, 0.5, src),
		"complete": graph.Complete(20),
		"grid":     graph.Grid(6, 6),
		"star":     graph.Star(15),
		"path":     graph.Path(25),
		"empty":    graph.Empty(8),
		"zero":     graph.Empty(0),
	}
	for name, g := range graphs {
		res, err := Run(g, f, rng.New(9), Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Terminated {
			t.Fatalf("%s: not terminated", name)
		}
		if err := graph.VerifyMIS(g, res.InMIS); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestEngineEquivalence is the cross-validation the two engines were
// designed for: from the same master seed, the concurrent channel-based
// execution must reproduce the sequential simulator's execution exactly —
// same rounds, same per-node beep counts, same MIS.
func TestEngineEquivalence(t *testing.T) {
	src := rng.New(2)
	cases := map[string]*graph.Graph{
		"gnp-half":   graph.GNP(80, 0.5, src),
		"gnp-sparse": graph.GNP(150, 0.03, src),
		"complete":   graph.Complete(30),
		"grid":       graph.Grid(7, 8),
		"cliques":    graph.CliqueFamily(300),
		"star":       graph.Star(40),
	}
	algos := []string{mis.NameFeedback, mis.NameGlobalSweep, mis.NameAfek}
	for gname, g := range cases {
		for _, aname := range algos {
			factory, err := mis.NewFactory(mis.Spec{Name: aname})
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(100); seed < 103; seed++ {
				simRes, err := sim.Run(g, factory, rng.New(seed), sim.Options{})
				if err != nil {
					t.Fatalf("%s/%s sim: %v", gname, aname, err)
				}
				rtRes, err := Run(g, factory, rng.New(seed), Options{})
				if err != nil {
					t.Fatalf("%s/%s runtime: %v", gname, aname, err)
				}
				if simRes.Rounds != rtRes.Rounds {
					t.Fatalf("%s/%s seed %d: rounds sim=%d runtime=%d", gname, aname, seed, simRes.Rounds, rtRes.Rounds)
				}
				if simRes.TotalBeeps != rtRes.TotalBeeps {
					t.Fatalf("%s/%s seed %d: beeps sim=%d runtime=%d", gname, aname, seed, simRes.TotalBeeps, rtRes.TotalBeeps)
				}
				for v := range simRes.InMIS {
					if simRes.InMIS[v] != rtRes.InMIS[v] {
						t.Fatalf("%s/%s seed %d: node %d MIS membership differs", gname, aname, seed, v)
					}
					if simRes.Beeps[v] != rtRes.Beeps[v] {
						t.Fatalf("%s/%s seed %d: node %d beeps sim=%d runtime=%d",
							gname, aname, seed, v, simRes.Beeps[v], rtRes.Beeps[v])
					}
				}
			}
		}
	}
}

func TestRunMaxRounds(t *testing.T) {
	f, err := mis.NewFixedProb(0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(graph.Complete(30), f, rng.New(3), Options{MaxRounds: 50})
	if !errors.Is(err, ErrTooManyRounds) {
		t.Fatalf("err = %v, want ErrTooManyRounds", err)
	}
	if res.Terminated || res.Rounds != 50 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRunDeterminismAcrossInvocations(t *testing.T) {
	g := graph.GNP(50, 0.4, rng.New(4))
	f, err := mis.NewFeedback(mis.FeedbackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(g, f, rng.New(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, f, rng.New(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.TotalBeeps != b.TotalBeeps {
		t.Fatal("concurrent engine is not deterministic for a fixed seed")
	}
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] {
			t.Fatal("concurrent engine set membership varies across runs")
		}
	}
}

func TestRunSingleNode(t *testing.T) {
	f, err := mis.NewFeedback(mis.FeedbackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(graph.Empty(1), f, rng.New(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.InMIS[0] {
		t.Fatal("lone node must join")
	}
}

// TestEngineEquivalenceAfekRestart runs the Science'11 schedule past
// the end of its first ramp, where it restarts at 1/(D+1), on both the
// goroutine runtime and the simulator: the restart must happen in the
// same step on each.
func TestEngineEquivalenceAfekRestart(t *testing.T) {
	g := graph.GNP(200, 0.5, rng.New(4))
	factory, err := mis.NewFactory(mis.Spec{Name: mis.NameAfek, Afek: mis.AfekOriginalConfig{StepsPerLevel: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// One level for each probability from 1/(D+1) doubling up to 1/2.
	cycle := 1
	for p := 1 / float64(g.MaxDegree()+1); p < 0.5; p = min(2*p, 0.5) {
		cycle++
	}
	for seed := uint64(0); seed < 3; seed++ {
		simRes, err := sim.Run(g, factory, rng.New(seed), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rtRes, err := Run(g, factory, rng.New(seed), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if simRes.Rounds <= cycle {
			t.Fatalf("seed %d: %d rounds do not cross the restart after one %d-round cycle", seed, simRes.Rounds, cycle)
		}
		if simRes.Rounds != rtRes.Rounds || simRes.TotalBeeps != rtRes.TotalBeeps {
			t.Fatalf("seed %d: rounds %d/%d, beeps %d/%d", seed, simRes.Rounds, rtRes.Rounds, simRes.TotalBeeps, rtRes.TotalBeeps)
		}
		for v := range simRes.InMIS {
			if simRes.InMIS[v] != rtRes.InMIS[v] {
				t.Fatalf("seed %d: node %d membership differs", seed, v)
			}
		}
	}
}
