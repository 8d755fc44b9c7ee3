package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
)

// TestRunCSREquivalence is RunCSR's contract test: for every engine and
// shard count, RunCSR(c, …) must be bit-identical to Run over the
// adjacency view of the same CSR — the sparse path runs the CSR
// directly, the columnar one builds its matrix from the view, and
// neither may change a single field.
func TestRunCSREquivalence(t *testing.T) {
	c, err := graph.RMATCSR(128, 1200, 0.57, 0.19, 0.19, 0.05, rng.New(31), 0)
	if err != nil {
		t.Fatal(err)
	}
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 5
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
				want, err := Run(graph.FromCSR(c), factory, rng.New(seed), opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunCSR(c, factory, rng.New(seed), opts)
				if err != nil {
					t.Fatal(err)
				}
				assertIdenticalNamed(t, want, got, "Run(FromCSR)", "RunCSR")
				if err := graph.VerifyMIS(graph.FromCSR(c), got.InMIS); err != nil {
					t.Fatalf("RunCSR result is not a maximal independent set: %v", err)
				}
			})
		}
	}
}

// TestRunCSRFaults: the fault layer (noise, adversarial wake, outages)
// must compose with the direct-CSR sparse path, still bit-identical to
// the Graph route — this is where fault.Topology earns its keep.
func TestRunCSRFaults(t *testing.T) {
	c, err := graph.ConfigModelCSR(150, 900, 2.5, rng.New(33), 0)
	if err != nil {
		t.Fatal(err)
	}
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	fs := &fault.Spec{
		Loss:     0.02,
		Spurious: 0.01,
		Wake:     &fault.Wake{Kind: fault.WakeDegree, Window: 6},
	}
	opts := Options{Engine: EngineSparse, Shards: 2, Bulk: bulk, BeepLoss: 0.1, Faults: fs}
	want, err := Run(graph.FromCSR(c), factory, rng.New(9), opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCSR(c, factory, rng.New(9), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalNamed(t, want, got, "Run(FromCSR)", "RunCSR")
}

// TestRunCSRValidation: RunCSR rejects the same invalid options Run
// does, before touching the round loop.
func TestRunCSRValidation(t *testing.T) {
	c := graph.NewCSR(graph.Path(4))
	factory, _, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{BeepLoss: -0.1},
		{BeepLoss: 1},
		{Shards: -1},
		{MemoryBudget: -1},
		{Engine: Engine(99)},
		{WakeAt: []int{1, 1}}, // wrong length for n=4
		{CrashAtRound: map[int][]int{1: {99}}},
	}
	for i, opts := range bad {
		if _, err := RunCSR(c, factory, rng.New(1), opts); err == nil {
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
	c, err := b.Finish(1)
	if err != nil {
		t.Fatal(err)
	}
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunCSR(c, factory, rng.New(1), Options{BeepLoss: 0.1, Bulk: bulk})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(fault.MaxChannelNodes)) {
		t.Fatalf("beep loss on %d nodes: err %v, want the %d-node bound named", c.N(), err, fault.MaxChannelNodes)
	}
	if _, err := RunCSR(c, factory, rng.New(1), Options{MaxRounds: 1, Bulk: bulk}); err != nil && !errors.Is(err, ErrTooManyRounds) {
		t.Fatalf("loss-free run on %d nodes: %v", c.N(), err)
	}
}
