package sim

import (
	"errors"
	"math"
	"testing"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/obs"
	"beepmis/internal/rng"
)

func TestSnapshotProbabilities(t *testing.T) {
	g := graph.GNP(40, 0.5, rng.New(1))
	factory, err := mis.NewFactory(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	sawPositive := false
	_, err = Run(g, factory, rng.New(2), Options{
		OnRound: func(s Snapshot) {
			if len(s.Probabilities) != g.N() {
				t.Fatalf("probabilities slice length %d", len(s.Probabilities))
			}
			for v, p := range s.Probabilities {
				switch {
				case s.States[v].Terminal():
					if p != 0 {
						t.Fatalf("terminal node %d reports p=%v", v, p)
					}
				case math.IsNaN(p):
					t.Fatalf("feedback automaton should report probabilities (node %d)", v)
				case p <= 0 || p > 0.5:
					t.Fatalf("node %d probability %v outside (0, 1/2]", v, p)
				default:
					sawPositive = true
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawPositive {
		t.Fatal("never observed an active node probability")
	}
}

// TestEquationOneSingleBeeper validates the paper's equation (1): on a
// clique K_d where every node beeps with probability p, the chance that
// some vertex joins the MIS in one step equals the probability of
// exactly one beeper, d·p·(1−p)^(d−1).
func TestEquationOneSingleBeeper(t *testing.T) {
	const (
		d      = 12
		p      = 0.125
		trials = 60000
	)
	g := graph.Complete(d)
	factory, err := mis.NewFixedProb(p)
	if err != nil {
		t.Fatal(err)
	}
	joins := 0
	for trial := 0; trial < trials; trial++ {
		res, err := Run(g, factory, rng.New(uint64(trial)), Options{MaxRounds: 1})
		// MaxRounds=1 usually errors (the clique rarely resolves in one
		// step); only the first-step outcome matters here.
		if err == nil || res != nil {
			for v := 0; v < d; v++ {
				if res.States[v] == beep.StateInMIS {
					joins++
					break
				}
			}
		}
	}
	want := float64(d) * p * math.Pow(1-p, d-1)
	got := float64(joins) / trials
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("single-beeper join rate %.4f, equation (1) predicts %.4f", got, want)
	}
}

// TestFeedbackProbabilityDynamics follows one dense clique and checks the
// qualitative behaviour the proof of Theorem 2 relies on: under constant
// collisions, probabilities fall (the heavy-neighbourhood weight μ
// shrinks), and they recover toward 1/2 once the neighbourhood clears.
func TestFeedbackProbabilityDynamics(t *testing.T) {
	g := graph.Complete(30)
	factory, err := mis.NewFactory(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	var meanPFirst, meanPLater float64
	rounds := 0
	_, err = Run(g, factory, rng.New(9), Options{
		OnRound: func(s Snapshot) {
			rounds++
			sum, count := 0.0, 0
			for v, p := range s.Probabilities {
				if !s.States[v].Terminal() {
					sum += p
					count++
				}
			}
			if count == 0 {
				return
			}
			mean := sum / float64(count)
			if rounds == 1 {
				meanPFirst = mean
			}
			if rounds == 4 {
				meanPLater = mean
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 4 {
		t.Skip("clique resolved before round 4; dynamics not observable this seed")
	}
	if !(meanPLater < meanPFirst) {
		t.Fatalf("mean p did not fall under collisions: round1=%.3f round4=%.3f", meanPFirst, meanPLater)
	}
}

// loudAutomaton beeps every step.
type loudAutomaton struct{}

func (loudAutomaton) Beep(*rng.Source) bool { return true }
func (loudAutomaton) Observe(beep.Outcome)  {}

// TestBeepLossDrawDistribution checks the beep-loss draw against
// per-edge loss: a listener with k emitting neighbours must hear
// nothing with probability L^k. Node 0 is the centre of a star K_{1,k}
// and every node beeps in round 1, so node 0 joins in that round
// exactly when all k of its neighbours' beeps are lost. Over 2,000
// seeded one-round runs per (k, L), the join frequency must lie within
// 5σ of L^k on the reference loop, the columnar engine, and the sparse
// engine with its first exchange pushed and pulled. Padding steers the
// sparse plan: a ten-node clique makes pulling cheaper, and 200
// dormant isolated nodes make pushing cheaper; neither touches node 0.
func TestBeepLossDrawDistribution(t *testing.T) {
	const runs = 2000
	factory := func(beep.NodeInfo) beep.Automaton { return loudAutomaton{} }
	for _, k := range []int{1, 2, 4, 8} {
		star := func(extra int) *graph.Builder {
			b := graph.NewBuilder(k + 1 + extra)
			for leaf := 1; leaf <= k; leaf++ {
				b.AddEdge(0, leaf)
			}
			return b
		}
		pullB := star(10)
		for u := k + 1; u < k+11; u++ {
			for v := u + 1; v < k+11; v++ {
				pullB.AddEdge(u, v)
			}
		}
		pullG, pushG := pullB.Build(), star(200).Build()
		dormant := make([]int, pushG.N())
		for v := k + 1; v < len(dormant); v++ {
			dormant[v] = 2
		}
		configs := []struct {
			name string
			g    *graph.Graph
			opts Options
			pull bool // the sparse engine must pull (true) or push (false) the first exchange
		}{
			{"reference", pullG, Options{}, false},
			{"columnar", pullG, Options{Engine: EngineColumnar}, false},
			{"sparse-pull", pullG, Options{Engine: EngineSparse}, true},
			{"sparse-push", pushG, Options{Engine: EngineSparse, WakeAt: dormant}, false},
		}
		for _, loss := range []float64{0.1, 0.5} {
			want := math.Pow(loss, float64(k))
			bound := 5 * math.Sqrt(want*(1-want)/runs)
			for _, tc := range configs {
				m := &obs.EngineMetrics{}
				opts := tc.opts
				opts.BeepLoss, opts.MaxRounds, opts.Shards, opts.Metrics = loss, 1, 1, m
				deaf := 0
				for seed := uint64(0); seed < runs; seed++ {
					run := Run
					if tc.name == "reference" {
						run = referenceRun
					}
					res, err := run(tc.g, factory, rng.New(seed), opts)
					if err != nil && !errors.Is(err, ErrTooManyRounds) {
						t.Fatalf("%s k=%d: %v", tc.name, k, err)
					}
					if res.InMIS[0] {
						deaf++
					}
				}
				if got := float64(deaf) / runs; math.Abs(got-want) > bound {
					t.Errorf("%s k=%d L=%v: listener heard nothing in %.4f of rounds, want %.4f ± %.4f (5σ)",
						tc.name, k, loss, got, want, bound)
				}
				if tc.opts.Engine == EngineSparse && (m.PullExchanges.Value() > 0) != tc.pull {
					t.Fatalf("%s k=%d: %d pulled exchanges, want pull=%v", tc.name, k, m.PullExchanges.Value(), tc.pull)
				}
			}
		}
	}
}
