package mis

import (
	"fmt"
	"math"
	"testing"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

// bulkSpecs enumerates every algorithm with a columnar kernel, under a
// spread of configurations, for the kernel-vs-automata property tests.
func bulkSpecs() []Spec {
	return []Spec{
		{Name: NameFeedback},
		{Name: NameFeedback, Feedback: FeedbackConfig{Factor: 1.5}},
		{Name: NameFeedback, Feedback: FeedbackConfig{Factor: 3, InitialP: 1.0 / 16}},
		{Name: NameFeedback, Feedback: FeedbackConfig{MinP: 1.0 / 64}},
		{Name: NameFeedback, Feedback: FeedbackConfig{InitialP: 1, MaxP: 0.25}},
		{Name: NameGlobalSweep},
		{Name: NameAfek},
		{Name: NameAfek, Afek: AfekOriginalConfig{StepsPerLevel: 3}},
	}
}

// driveKernelAndAutomata runs `rounds` steps of full-range (BeepRange,
// ObserveRange) calls against the per-node reference on arbitrary masks drawn from maskSrc,
// failing on the first divergence in beep decisions or reported
// probabilities. The masks need not come from any actual graph — the
// kernel contract is purely per-node, so ANY mask sequence a simulator
// could produce must agree.
func driveKernelAndAutomata(t testing.TB, spec Spec, n, rounds int, seed uint64, maskSrc *rng.Source) {
	factory, bulkFactory, err := NewFactories(spec)
	if err != nil {
		t.Fatal(err)
	}
	if bulkFactory == nil {
		t.Fatalf("spec %+v has no bulk kernel", spec)
	}
	degrees := make([]int, n)
	maxDeg := 0
	for v := range degrees {
		degrees[v] = maskSrc.Intn(n + 1)
		if degrees[v] > maxDeg {
			maxDeg = degrees[v]
		}
	}
	autos := make([]beep.Automaton, n)
	autoStreams := make([]*rng.Source, n)
	kernelStreams := make([]rng.Source, n)
	for v := 0; v < n; v++ {
		autos[v] = factory(beep.NodeInfo{ID: v, N: n, MaxDegree: maxDeg})
		// Two independent copies of the same per-node stream: the
		// kernel must consume exactly what the automaton consumes.
		autoStreams[v] = rng.New(seed).Stream(uint64(v))
		rng.New(seed).StreamInto(&kernelStreams[v], uint64(v))
	}
	kernel := bulkFactory(beep.NetworkInfo{N: n, MaxDegree: maxDeg})

	active := graph.NewBitset(n)
	heard := graph.NewBitset(n)
	observed := graph.NewBitset(n)
	beeped := graph.NewBitset(n)
	wantProbs := make([]float64, n)
	gotProbs := make([]float64, n)
	randomMask := func(b graph.Bitset, within graph.Bitset) {
		b.Zero()
		for v := 0; v < n; v++ {
			if (within == nil || within.Test(v)) && maskSrc.Intn(2) == 1 {
				b.Set(v)
			}
		}
	}
	for round := 0; round < rounds; round++ {
		randomMask(active, nil)
		randomMask(heard, nil)
		randomMask(observed, active)

		beeped.Zero()
		kernel.BeepRange(active, kernelStreams, beeped, 0, len(active))
		for v := 0; v < n; v++ {
			if !active.Test(v) {
				continue
			}
			want := autos[v].Beep(autoStreams[v])
			if beeped.Test(v) != want {
				t.Fatalf("round %d node %d: kernel beeped=%v, automaton %v (spec %+v seed %d)",
					round, v, beeped.Test(v), want, spec, seed)
			}
		}
		for v := 0; v < n; v++ {
			if observed.Test(v) {
				autos[v].Observe(beep.Outcome{Beeped: beeped.Test(v), Heard: heard.Test(v)})
			}
		}
		kernel.ObserveRange(observed, beeped, heard, 0, len(observed))

		kernel.BeepProbabilities(gotProbs)
		for v := 0; v < n; v++ {
			wantProbs[v] = autos[v].(beep.ProbabilityReporter).BeepProbability()
			if wantProbs[v] != gotProbs[v] && !(math.IsNaN(wantProbs[v]) && math.IsNaN(gotProbs[v])) {
				t.Fatalf("round %d node %d: kernel p=%v, automaton p=%v (spec %+v seed %d)",
					round, v, gotProbs[v], wantProbs[v], spec, seed)
			}
		}
	}
}

// TestBulkKernelsMatchAutomata is the kernel-level property test: on
// hundreds of random mask sequences, sizes straddling word boundaries,
// and a spread of configurations, every bulk kernel must make exactly
// the per-node automaton's decisions and probability updates.
func TestBulkKernelsMatchAutomata(t *testing.T) {
	sizes := []int{1, 7, 63, 64, 65, 130, 200}
	trials := 6
	if testing.Short() {
		sizes = []int{65, 130}
		trials = 2
	}
	for _, spec := range bulkSpecs() {
		// Kernel configurations set none of the per-node feedback
		// fields, so the name lists the four scalar ones.
		name := spec.Name
		if fb := spec.Feedback; fb.InitialP != 0 || fb.Factor != 0 || fb.MaxP != 0 || fb.MinP != 0 || spec.Afek != (AfekOriginalConfig{}) {
			name = fmt.Sprintf("%s/{InitialP:%v Factor:%v MaxP:%v MinP:%v}%+v", spec.Name, fb.InitialP, fb.Factor, fb.MaxP, fb.MinP, spec.Afek)
		}
		t.Run(name, func(t *testing.T) {
			for _, n := range sizes {
				for trial := 0; trial < trials; trial++ {
					seed := uint64(n*1000 + trial)
					maskSrc := rng.New(seed ^ 0xabcdef)
					driveKernelAndAutomata(t, spec, n, 30, seed, maskSrc)
				}
			}
		})
	}
}

// TestBulkKernelsOnGraphs drives kernels through sim-shaped mask
// sequences derived from random graphs: active sets shrink monotonically
// and heard sets come from actual neighbourhoods, complementing the
// arbitrary-mask property test above with realistic trajectories.
func TestBulkKernelsOnGraphs(t *testing.T) {
	for _, spec := range bulkSpecs() {
		for gseed := uint64(0); gseed < 3; gseed++ {
			g := graph.GNP(150, 0.1*float64(gseed+1), rng.New(gseed))
			n := g.N()
			mat := g.Matrix()
			factory, bulkFactory, err := NewFactories(spec)
			if err != nil {
				t.Fatal(err)
			}
			maxDeg := g.MaxDegree()
			autos := make([]beep.Automaton, n)
			autoStreams := make([]*rng.Source, n)
			kernelStreams := make([]rng.Source, n)
			for v := 0; v < n; v++ {
				autos[v] = factory(beep.NodeInfo{ID: v, N: n, MaxDegree: maxDeg})
				autoStreams[v] = rng.New(gseed).Stream(uint64(v))
				rng.New(gseed).StreamInto(&kernelStreams[v], uint64(v))
			}
			kernel := bulkFactory(beep.NetworkInfo{N: n, MaxDegree: maxDeg})

			active := graph.NewBitset(n)
			active.Fill(n)
			beeped := graph.NewBitset(n)
			heard := graph.NewBitset(n)
			observed := graph.NewBitset(n)
			dropSrc := rng.New(gseed + 77)
			for round := 0; round < 25 && active.Any(); round++ {
				beeped.Zero()
				kernel.BeepRange(active, kernelStreams, beeped, 0, len(active))
				for v := 0; v < n; v++ {
					if active.Test(v) && autos[v].Beep(autoStreams[v]) != beeped.Test(v) {
						t.Fatalf("%s g=%d round %d node %d: beep divergence", spec.Name, gseed, round, v)
					}
				}
				mat.ExchangeRange(graph.ExchangePlan{Serial: true}, heard, nil, beeped, 0, mat.Words())
				// Observe the active nodes, then retire a random subset
				// to emulate joins/dominations shrinking the active set.
				copy(observed, active)
				for v := 0; v < n; v++ {
					if observed.Test(v) {
						autos[v].Observe(beep.Outcome{Beeped: beeped.Test(v), Heard: heard.Test(v)})
					}
				}
				kernel.ObserveRange(observed, beeped, heard, 0, len(observed))
				for v := 0; v < n; v++ {
					if active.Test(v) && dropSrc.Intn(5) == 0 {
						active.Clear(v)
					}
				}
			}
		}
	}
}

// TestBulkKernelsResetMatchFreshAutomata pins the ResetNodes contract
// of beep.BulkAutomaton that the fault layer's reset recoveries rely
// on: after driving the kernel for a while and resetting a
// subset of nodes, those nodes must behave exactly like freshly
// constructed per-node automata — same draws, same probabilities —
// while untouched nodes keep their advanced state.
func TestBulkKernelsResetMatchFreshAutomata(t *testing.T) {
	const n = 130
	for _, spec := range bulkSpecs() {
		factory, bulkFactory, err := NewFactories(spec)
		if err != nil {
			t.Fatal(err)
		}
		degrees := make([]int, n)
		maskSrc := rng.New(99)
		maxDeg := 0
		for v := range degrees {
			degrees[v] = maskSrc.Intn(n)
			if degrees[v] > maxDeg {
				maxDeg = degrees[v]
			}
		}
		kernel := bulkFactory(beep.NetworkInfo{N: n, MaxDegree: maxDeg})
		streams := make([]rng.Source, n)
		for v := range streams {
			rng.New(5).StreamInto(&streams[v], uint64(v))
		}
		// Advance every node's state for several rounds.
		active := graph.NewBitset(n)
		active.Fill(n)
		beeped := graph.NewBitset(n)
		heard := graph.NewBitset(n)
		for round := 0; round < 10; round++ {
			beeped.Zero()
			kernel.BeepRange(active, streams, beeped, 0, len(active))
			heard.Zero()
			for v := 0; v < n; v++ {
				if maskSrc.Intn(2) == 1 {
					heard.Set(v)
				}
			}
			kernel.ObserveRange(active, beeped, heard, 0, len(active))
		}
		before := make([]float64, n)
		kernel.BeepProbabilities(before)

		resetNodes := []int{0, 63, 64, 100}
		kernel.ResetNodes(resetNodes)
		after := make([]float64, n)
		kernel.BeepProbabilities(after)
		isReset := make(map[int]bool, len(resetNodes))
		for _, v := range resetNodes {
			isReset[v] = true
			fresh := factory(beep.NodeInfo{ID: v, N: n, MaxDegree: maxDeg})
			if want := fresh.(beep.ProbabilityReporter).BeepProbability(); after[v] != want {
				t.Fatalf("%s: reset node %d reports p=%v, fresh automaton %v", spec.Name, v, after[v], want)
			}
		}
		for v := 0; v < n; v++ {
			if !isReset[v] && after[v] != before[v] {
				t.Fatalf("%s: ResetNodes touched unlisted node %d (p %v → %v)", spec.Name, v, before[v], after[v])
			}
		}
	}
}

// FuzzBulkFeedbackKernel fuzzes the feedback kernel against its per-node
// automaton over fuzzer-chosen configurations, sizes, and seeds.
func FuzzBulkFeedbackKernel(f *testing.F) {
	f.Add(uint64(1), uint16(100), byte(4), byte(1), byte(4), byte(0))
	f.Add(uint64(42), uint16(64), byte(2), byte(2), byte(2), byte(6))
	f.Add(uint64(7), uint16(65), byte(6), byte(4), byte(1), byte(2))
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, factorQ, initQ, maxQ, minQ byte) {
		n := int(size)%256 + 1
		cfg := FeedbackConfig{
			// Quantised parameters keep the config in Validate's domain
			// while letting the fuzzer explore it.
			Factor:   1 + float64(factorQ%16+1)/4,
			InitialP: 1 / float64(initQ%7+1),
			MaxP:     1 / float64(maxQ%4+1),
		}
		if minQ%2 == 1 {
			cfg.MinP = cfg.MaxP / float64(minQ%8+2)
		}
		if cfg.Validate() != nil {
			t.Skip()
		}
		maskSrc := rng.New(seed ^ 0x5eed)
		driveKernelAndAutomata(t, Spec{Name: NameFeedback, Feedback: cfg}, n, 12, seed, maskSrc)
	})
}
