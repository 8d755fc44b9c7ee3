package mis

import (
	"testing"

	"beepmis/internal/beep"
	"beepmis/internal/rng"
)

// variableConfig and variableNode are the jittered feedback variant
// that FeedbackConfig's FactorMax and InitialPByID replaced, kept as the
// oracle the feedback automaton must match draw for draw.
type variableConfig struct {
	Base               FeedbackConfig
	FactorLo, FactorHi float64
	PerNode            func(id int) float64
}

// variableNode is feedbackNode with a per-step random factor drawn
// fresh from [lo, hi], from the node's own stream, at every adjustment.
type variableNode struct {
	p         float64
	cfg       FeedbackConfig
	lo, hi    float64
	factorSrc *rng.Source
}

func (v *variableNode) Beep(r *rng.Source) bool {
	v.factorSrc = r
	return r.Bernoulli(v.p)
}

func (v *variableNode) Observe(o beep.Outcome) {
	factor := v.cfg.Factor
	switch {
	case v.factorSrc == nil:
	case v.hi > v.lo:
		factor = v.lo + (v.hi-v.lo)*v.factorSrc.Float64()
	case v.lo > 1:
		factor = v.lo
	}
	if o.Heard {
		v.p /= factor
		if v.cfg.MinP > 0 && v.p < v.cfg.MinP {
			v.p = v.cfg.MinP
		}
		return
	}
	v.p *= factor
	if v.p > v.cfg.MaxP {
		v.p = v.cfg.MaxP
	}
}

func (v *variableNode) BeepProbability() float64 { return v.p }

// variableReference is the deleted NewFeedbackVariable.
func variableReference(cfg variableConfig) beep.Factory {
	base := cfg.Base.withDefaults()
	return func(info beep.NodeInfo) beep.Automaton {
		p := base.InitialP
		if cfg.PerNode != nil {
			if custom := cfg.PerNode(info.ID); custom > 0 && custom <= base.MaxP {
				p = custom
			}
		}
		return &variableNode{p: min(p, base.MaxP), cfg: base, lo: cfg.FactorLo, hi: cfg.FactorHi}
	}
}

// heterogeneousReference is the deleted NewFeedbackHeterogeneous: the
// fixed-factor automaton with a per-node initial probability.
func heterogeneousReference(cfg FeedbackConfig, initial func(id int) float64) beep.Factory {
	return variableReference(variableConfig{Base: cfg, PerNode: initial})
}

func TestVariableConfigValidate(t *testing.T) {
	good := []FeedbackConfig{
		{},
		{Factor: 1.5, FactorMax: 3},
		{Factor: 2, FactorMax: 2},
		{FactorMax: 5},
		{InitialPByID: []float64{0.25}},
		{InitialPByID: make([]float64, maxInitialPByID), InitialP: 0.1},
		{MaxP: 0.25, InitialPByID: []float64{0.25, 0.125}},
	}
	for v := range good[5].InitialPByID {
		good[5].InitialPByID[v] = 0.5
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good case %d rejected: %v", i, err)
		}
	}
	bad := []FeedbackConfig{
		{Factor: 3, FactorMax: 2},
		{FactorMax: 1.5},
		{Factor: 1, FactorMax: 2},
		{InitialPByID: []float64{}},
		{InitialPByID: make([]float64, maxInitialPByID+1)},
		{InitialPByID: []float64{0.25, 0}},
		{InitialPByID: []float64{-0.5}},
		{InitialPByID: []float64{0.75}},
		{MaxP: 0.25, InitialPByID: []float64{0.5}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad case %d accepted: %+v", i, cfg)
		}
	}
}

func TestVariablePerNodeInitial(t *testing.T) {
	f, err := NewFeedback(FeedbackConfig{InitialPByID: []float64{0.25, 0.125}})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range []float64{0.25, 0.125, 0.25, 0.125} {
		if p := probOf(t, f(beep.NodeInfo{ID: id})); p != want {
			t.Fatalf("node %d p = %v, want %v", id, p, want)
		}
	}
}

func TestVariableJitteredFactorStaysInRange(t *testing.T) {
	f, err := NewFeedback(FeedbackConfig{Factor: 1.5, FactorMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := f(beep.NodeInfo{})
	src := rng.New(3)
	p := probOf(t, a)
	for i := 0; i < 200; i++ {
		a.Beep(src)
		prev := p
		a.Observe(beep.Outcome{Heard: true})
		p = probOf(t, a)
		ratio := prev / p
		if ratio < 1.5-1e-9 || ratio > 4+1e-9 {
			t.Fatalf("step %d: factor %v outside [1.5, 4]", i, ratio)
		}
	}
	// Recovery is capped at MaxP.
	for i := 0; i < 300; i++ {
		a.Beep(src)
		a.Observe(beep.Outcome{})
	}
	if p := probOf(t, a); p != 0.5 {
		t.Fatalf("p = %v, want capped at 0.5", p)
	}
}

// TestVariableFixedLoEqualsHi: a factor range of one point is the fixed
// step, draws nothing, and keeps the columnar kernel.
func TestVariableFixedLoEqualsHi(t *testing.T) {
	cfg := FeedbackConfig{Factor: 3, FactorMax: 3}
	f, bulk, err := NewFactories(Spec{Name: NameFeedback, Feedback: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if bulk == nil {
		t.Fatal("a one-point factor range lost the columnar kernel")
	}
	a := f(beep.NodeInfo{})
	src := rng.New(4)
	a.Beep(src)
	a.Observe(beep.Outcome{Heard: true})
	if p := probOf(t, a); p != 0.5/3 {
		t.Fatalf("p = %v, want 1/6", p)
	}
	// Observe drew nothing: the stream is one beep draw in.
	ref := rng.New(4)
	ref.Bernoulli(0.5)
	if src.Uint64() != ref.Uint64() {
		t.Fatal("a one-point factor range drew a factor")
	}
}

func TestVariableObserveBeforeBeepSafe(t *testing.T) {
	f, err := NewFeedback(FeedbackConfig{Factor: 2, FactorMax: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := f(beep.NodeInfo{})
	// Defensive path: must not panic and must use the base factor.
	a.Observe(beep.Outcome{Heard: true})
	if p := probOf(t, a); p != 0.25 {
		t.Fatalf("p = %v, want 0.25 via base factor", p)
	}
}

// TestFeedbackMatchesVariableReference drives the feedback automaton
// and the variant it replaced side by side, on copies of one stream per
// node and one random outcome sequence: every beep decision, every
// probability and the number of draws must agree. The configurations
// are the ones the experiments, examples and engine tests used.
func TestFeedbackMatchesVariableReference(t *testing.T) {
	cases := []struct {
		cfg FeedbackConfig
		ref variableConfig
	}{
		{FeedbackConfig{}, variableConfig{}},
		{FeedbackConfig{Factor: 1.5, FactorMax: 3}, variableConfig{FactorLo: 1.5, FactorHi: 3}},
		{FeedbackConfig{Factor: 1.2, FactorMax: 5}, variableConfig{FactorLo: 1.2, FactorHi: 5}},
		{
			FeedbackConfig{Factor: 1.5, FactorMax: 3, InitialPByID: []float64{1.0 / 2, 1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32}},
			variableConfig{FactorLo: 1.5, FactorHi: 3, PerNode: func(id int) float64 { return 1 / float64(int(2)<<uint(id%5)) }},
		},
		{
			FeedbackConfig{InitialPByID: []float64{1.0 / 2, 1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64}},
			variableConfig{PerNode: func(id int) float64 { return 1 / float64(int(1)<<uint(1+id%6)) }},
		},
		{
			FeedbackConfig{InitialPByID: []float64{1.0 / 2, 1.0 / 3, 1.0 / 4, 1.0 / 5, 1.0 / 6, 1.0 / 7, 1.0 / 8}},
			variableConfig{PerNode: func(id int) float64 { return 1 / float64(2+id%7) }},
		},
		{
			FeedbackConfig{Factor: 1.3, FactorMax: 4, MinP: 1.0 / 64, InitialPByID: []float64{1.0 / 2, 1.0 / 3, 1.0 / 4, 1.0 / 5}},
			variableConfig{Base: FeedbackConfig{MinP: 1.0 / 64}, FactorLo: 1.3, FactorHi: 4, PerNode: func(id int) float64 { return 1 / float64(2+id%4) }},
		},
	}
	for ci, tc := range cases {
		f, err := NewFeedback(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := variableReference(tc.ref)
		outcomes := rng.New(uint64(ci))
		for id := range 12 {
			a, b := f(beep.NodeInfo{ID: id}), ref(beep.NodeInfo{ID: id})
			sa, sb := rng.New(77).Stream(uint64(id)), rng.New(77).Stream(uint64(id))
			for step := range 200 {
				if a.Beep(sa) != b.Beep(sb) {
					t.Fatalf("case %d node %d step %d: beep decisions differ", ci, id, step)
				}
				o := beep.Outcome{Heard: outcomes.Intn(2) == 1}
				a.Observe(o)
				b.Observe(o)
				if pa, pb := probOf(t, a), probOf(t, b); pa != pb {
					t.Fatalf("case %d node %d step %d: p = %v, reference %v", ci, id, step, pa, pb)
				}
			}
			if sa.Uint64() != sb.Uint64() {
				t.Fatalf("case %d node %d: the two drew different numbers of values", ci, id)
			}
		}
	}
}

// TestPerNodeFeedbackHasNoKernel: per-step factor draws and per-node
// initial probabilities run on the per-node automata.
func TestPerNodeFeedbackHasNoKernel(t *testing.T) {
	for _, cfg := range []FeedbackConfig{
		{FactorMax: 3},
		{InitialPByID: []float64{0.25}},
	} {
		factory, bulk, err := NewFactories(Spec{Name: NameFeedback, Feedback: cfg})
		if err != nil || factory == nil || bulk != nil {
			t.Fatalf("%+v: factory %v, bulk %v, err %v; want automata only", cfg, factory != nil, bulk != nil, err)
		}
		if _, err := NewFeedbackBulk(cfg); err == nil {
			t.Fatalf("%+v: NewFeedbackBulk built a kernel that would ignore the per-node fields", cfg)
		}
	}
}
