package sim

import (
	"strings"
	"testing"

	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
)

// faultSpecs is the fault-model axis of the equivalence matrix: every
// Spec feature alone, and combined.
func faultSpecs() []struct {
	name string
	spec *fault.Spec
} {
	return []struct {
		name string
		spec *fault.Spec
	}{
		{"loss", &fault.Spec{Loss: 0.1}},
		{"spurious", &fault.Spec{Spurious: 0.08}},
		{"channel", &fault.Spec{Loss: 0.05, Spurious: 0.02}},
		{"wake-uniform", &fault.Spec{Wake: &fault.Wake{Kind: fault.WakeUniform, Window: 12}}},
		{"wake-degree", &fault.Spec{Wake: &fault.Wake{Kind: fault.WakeDegree, Window: 9}}},
		{"wake-explicit", &fault.Spec{Wake: &fault.Wake{Kind: fault.WakeExplicit, At: map[int][]int{4: {0, 3, 17}, 7: {40}}}}},
		{"outage-resume", &fault.Spec{Outages: []fault.Outage{{Node: 2, From: 1, For: 3}, {Node: 11, From: 2, For: 4}}}},
		{"outage-reset", &fault.Spec{Outages: []fault.Outage{{Node: 2, From: 2, For: 2, Reset: true}, {Node: 30, From: 1, For: 5, Reset: true}}}},
		{"kitchen-sink", &fault.Spec{
			Loss:     0.04,
			Spurious: 0.02,
			Wake:     &fault.Wake{Kind: fault.WakeUniform, Window: 6},
			Outages: []fault.Outage{
				{Node: 5, From: 2, For: 3},
				{Node: 5, From: 8, For: 2, Reset: true},
				{Node: 23, From: 1, For: 4, Reset: true},
			},
		}},
	}
}

// TestEngineEquivalenceFaults is the engine×shards×faults matrix: every
// fault-spec combination must produce bit-identical traces on the
// reference loop and on the columnar and sparse engines, with and
// without a kernel, at several shard counts — the determinism contract
// that makes the fault layer a semantic knob rather than an engine
// feature.
func TestEngineEquivalenceFaults(t *testing.T) {
	configModel, err := graph.ConfigModel(150, 900, 2.5, rng.New(33), 0)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"configmodel-150", configModel},
		{"gnp-150", graph.GNP(150, 0.3, rng.New(1))},
		{"gnp-sparse-200", graph.GNP(200, 0.03, rng.New(2))},
		{"grid-9x9", graph.Grid(9, 9)},
	}
	specs := []mis.Spec{
		{Name: mis.NameFeedback},
		{Name: mis.NameGlobalSweep},
		{Name: mis.NameAfek},
	}
	for _, tg := range graphs {
		for _, algo := range specs {
			for _, fc := range faultSpecs() {
				for seed := uint64(0); seed < 2; seed++ {
					runs := runAllEngines(t, tg.g, algo, seed, Options{Faults: fc.spec})
					assertAllIdentical(t, runs)
				}
			}
		}
	}
}

// TestFaultVerifierAgreesWithEngines attaches fault.Verifier to every
// engine run and cross-checks its incremental membership view against
// the engine's result — on a clean-channel adversarial schedule, it
// must also certify independence every round and maximality at the end.
func TestFaultVerifierAgreesWithEngines(t *testing.T) {
	g := graph.GNP(120, 0.2, rng.New(3))
	spec := &fault.Spec{
		Wake: &fault.Wake{Kind: fault.WakeDegree, Window: 8},
		Outages: []fault.Outage{
			{Node: 7, From: 2, For: 3},
			{Node: 19, From: 1, For: 4, Reset: true},
		},
	}
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range engineVariants {
		vf := fault.NewVerifier(g)
		opts := Options{Engine: ev.engine, Faults: spec, OnMISDelta: vf.ObserveRound}
		if ev.kernel {
			opts.Bulk = bulk
		}
		res, err := Run(g, factory, rng.New(9), opts)
		if err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		for v := range res.InMIS {
			if res.InMIS[v] != vf.InMIS(v) {
				t.Fatalf("%v: verifier membership diverges from the engine at node %d", ev, v)
			}
		}
		if err := vf.Check(nil); err != nil {
			t.Fatalf("%v: clean-channel adversarial run failed verification: %v", ev, err)
		}
		if vf.LastChangeRound() == 0 || vf.LastChangeRound() > res.Rounds {
			t.Fatalf("%v: rounds-to-stable %d outside (0, %d]", ev, vf.LastChangeRound(), res.Rounds)
		}
		if err := graph.VerifyMIS(g, res.InMIS); err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
	}
}

// TestFaultLossCanViolateIndependence pins the physics the verifier
// exists for: on K₂ with always-beeping nodes and heavy loss, both
// endpoints eventually lose each other's beep in the same round and
// both join — and the verifier reports exactly that breach, while a
// lossless run of the same configuration stays clean.
func TestFaultLossCanViolateIndependence(t *testing.T) {
	g := graph.Complete(2)
	factory, err := mis.NewFixedProb(1)
	if err != nil {
		t.Fatal(err)
	}
	vf := fault.NewVerifier(g)
	res, err := Run(g, factory, rng.New(1), Options{
		Faults:     &fault.Spec{Loss: 0.9},
		OnMISDelta: vf.ObserveRound,
		MaxRounds:  1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.InMIS[0] || !res.InMIS[1] {
		// With loss 0.9 the double-loss outcome dominates; the fixed
		// seed above produces it. If the rng ever changes, pick a seed
		// where it does — the point is observing the breach.
		t.Fatalf("expected the double-join breach, got InMIS=%v", res.InMIS)
	}
	if vf.ViolationCount() != 1 {
		t.Fatalf("verifier counted %d violations, want 1", vf.ViolationCount())
	}
	if err := vf.Check(nil); err == nil || !strings.Contains(err.Error(), "independence") {
		t.Fatalf("Check = %v, want independence error", err)
	}
}

// TestFaultSpuriousIsSafe: spurious noise delays joins but can never
// forge one, so independence holds on every engine and the verifier
// certifies the terminal set.
func TestFaultSpuriousIsSafe(t *testing.T) {
	g := graph.GNP(100, 0.3, rng.New(4))
	factory, err := mis.NewFactory(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	vf := fault.NewVerifier(g)
	res, err := Run(g, factory, rng.New(5), Options{
		Faults:     &fault.Spec{Spurious: 0.2},
		OnMISDelta: vf.ObserveRound,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.Check(nil); err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyMIS(g, res.InMIS); err != nil {
		t.Fatal(err)
	}
}

// TestFaultResetRemovesMISMember drives the adversarial reset recovery
// end to end on a path: the middle node joins, goes down, resets, and
// must come back active with its membership revoked — observed
// identically by every engine and reported to the delta hook.
func TestFaultResetRemovesMISMember(t *testing.T) {
	// P₃ with wake: leaves wake late so the middle node joins alone in
	// round 1 (it beeps with p = 1 under MaxP = 1... the default caps at
	// 1/2, so instead give it a long head start).
	g := graph.Path(3)
	spec := &fault.Spec{
		Wake:    &fault.Wake{Kind: fault.WakeExplicit, At: map[int][]int{30: {0, 2}}},
		Outages: []fault.Outage{{Node: 1, From: 10, For: 5, Reset: true}},
	}
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range engineVariants {
		var left []int
		opts := Options{
			Engine: ev.engine,
			Faults: spec,
			OnMISDelta: func(round int, joined, l []int) {
				left = append(left, l...)
			},
		}
		if ev.kernel {
			opts.Bulk = bulk
		}
		res, err := Run(g, factory, rng.New(2), opts)
		if err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		// Node 1 joined alone (the only awake node), so the reset at
		// round 15 must have revoked a membership; alone again, it
		// rejoins, and the leaves waking at 30 get dominated.
		if len(left) == 0 || left[0] != 1 {
			t.Fatalf("%v: expected node 1 to leave the set on reset, left=%v", ev, left)
		}
		// The run continues past the reset and still terminates; the
		// final set must be a valid MIS (node 1 either rejoined or was
		// dominated by a waking leaf).
		if err := graph.VerifyMIS(g, res.InMIS); err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		if !res.Terminated {
			t.Fatalf("%v: run did not terminate", ev)
		}
	}
}

// TestFaultResetAfterConvergenceStillFires is the silent-drop
// regression: a reset outage scheduled past the run's natural
// convergence must still happen — the loop stays alive until pending
// resets fire, the membership is revoked, and the network re-converges
// — identically on every engine. (A perturbation that never happens
// would look exactly like robustness.)
func TestFaultResetAfterConvergenceStillFires(t *testing.T) {
	g := graph.Path(2) // converges within a few rounds
	spec := &fault.Spec{Outages: []fault.Outage{{Node: 0, From: 60, For: 10, Reset: true}}}
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range engineVariants {
		var left []int
		opts := Options{
			Engine: ev.engine,
			Faults: spec,
			OnMISDelta: func(round int, joined, l []int) {
				left = append(left, l...)
			},
		}
		if ev.kernel {
			opts.Bulk = bulk
		}
		res, err := Run(g, factory, rng.New(4), opts)
		if err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		if res.Rounds < 70 {
			t.Fatalf("%v: run ended at round %d, before the scheduled reset at 70", ev, res.Rounds)
		}
		// Whatever node 0 was (member or dominated), the run survived the
		// reset and re-converged to a valid MIS.
		if !res.Terminated {
			t.Fatalf("%v: not terminated", ev)
		}
		if err := graph.VerifyMIS(g, res.InMIS); err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		// If node 0 had joined before the outage, its departure must have
		// been reported; either way the reset fired (rounds prove it).
		if res.InMIS[0] && len(left) == 0 && res.Rounds < 70 {
			t.Fatalf("%v: reset did not fire", ev)
		}
	}
}

// TestFaultChannelNodeBound pins the stream-packing limit: channel
// noise on a graph wider than the 21-bit node field is refused rather
// than allowed to draw correlated coins.
func TestFaultChannelNodeBound(t *testing.T) {
	if err := (&fault.Spec{Loss: 0.1}).Validate(fault.MaxChannelNodes + 1); err == nil {
		t.Fatal("channel noise accepted beyond MaxChannelNodes")
	}
	if err := (&fault.Spec{Loss: 0.1}).Validate(fault.MaxChannelNodes); err != nil {
		t.Fatalf("channel noise rejected at the bound: %v", err)
	}
	// Non-channel specs have no such limit.
	if err := (&fault.Spec{Wake: &fault.Wake{Kind: fault.WakeUniform, Window: 2}}).Validate(fault.MaxChannelNodes + 1); err != nil {
		t.Fatalf("wake-only spec rejected on a wide graph: %v", err)
	}
}

// TestFaultOptionValidation pins the explicit rejections: malformed
// specs, wake conflicts, and crash/outage contradictions all fail
// before the first round.
func TestFaultOptionValidation(t *testing.T) {
	g := graph.GNP(30, 0.3, rng.New(1))
	factory, err := mis.NewFactory(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		opts    Options
		wantErr string
	}{
		{"bad loss", Options{Faults: &fault.Spec{Loss: 1.5}}, "loss"},
		{"bad wake", Options{Faults: &fault.Spec{Wake: &fault.Wake{Kind: "nope", Window: 2}}}, "wake schedule"},
		{"outage range", Options{Faults: &fault.Spec{Outages: []fault.Outage{{Node: 99, From: 1, For: 1}}}}, "outside [0, 30)"},
		{"wake conflict", Options{
			WakeAt: make([]int, 30),
			Faults: &fault.Spec{Wake: &fault.Wake{Kind: fault.WakeUniform, Window: 3}},
		}, "conflicts"},
		{"crash overlap", Options{
			CrashAtRound: map[int][]int{3: {5}},
			Faults:       &fault.Spec{Outages: []fault.Outage{{Node: 5, From: 1, For: 2}}},
		}, "node 5"},
		{"outage past round cap", Options{
			MaxRounds: 40,
			Faults:    &fault.Spec{Outages: []fault.Outage{{Node: 3, From: 50, For: 5, Reset: true}}},
		}, "round cap"},
	}
	for _, tc := range cases {
		_, err := Run(g, factory, rng.New(1), tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
	// A nil and an all-zero spec are the perfect world and must match a
	// fault-free run exactly.
	base, err := Run(g, factory, rng.New(7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Run(g, factory, rng.New(7), Options{Faults: &fault.Spec{}})
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalNamed(t, base, zero, "no-faults", "zero-spec")
}

// TestFaultDownMISMemberSilent: while an MIS member is down it must not
// beep persistently, and a neighbour waking next to it may join —
// creating the very breach persistent beeping normally prevents. All
// engines must agree on the outcome, whatever it is.
func TestFaultDownMISMemberSilent(t *testing.T) {
	g := graph.Path(2)
	spec := &fault.Spec{
		Wake:    &fault.Wake{Kind: fault.WakeExplicit, At: map[int][]int{20: {1}}},
		Outages: []fault.Outage{{Node: 0, From: 18, For: 10}},
	}
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	reference, err := referenceRun(g, factory, rng.New(3), Options{Faults: spec})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0, alone and awake, joins within the first rounds; during its
	// outage the persistent beep pauses.
	if !reference.InMIS[0] {
		t.Fatalf("node 0 should have joined before its outage, states %v", reference.States)
	}
	for _, ev := range engineVariants {
		opts := Options{Engine: ev.engine, Faults: spec}
		if ev.kernel {
			opts.Bulk = bulk
		}
		res, err := Run(g, factory, rng.New(3), opts)
		if err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		assertIdenticalNamed(t, reference, res, "reference", ev.String())
	}
}
