package mis

import (
	"math"
	"testing"

	"beepmis/internal/beep"
	"beepmis/internal/rng"
)

func mustFeedback(t *testing.T, cfg FeedbackConfig) beep.Automaton {
	t.Helper()
	f, err := NewFeedback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f(beep.NodeInfo{ID: 0, N: 10, MaxDegree: 5})
}

func probOf(t *testing.T, a beep.Automaton) float64 {
	t.Helper()
	pr, ok := a.(beep.ProbabilityReporter)
	if !ok {
		t.Fatal("automaton does not report probability")
	}
	return pr.BeepProbability()
}

func TestFeedbackDefaults(t *testing.T) {
	a := mustFeedback(t, FeedbackConfig{})
	if p := probOf(t, a); p != 0.5 {
		t.Fatalf("initial p = %v, want 0.5", p)
	}
}

func TestFeedbackHalvesOnBeep(t *testing.T) {
	a := mustFeedback(t, FeedbackConfig{})
	a.Observe(beep.Outcome{Heard: true})
	if p := probOf(t, a); p != 0.25 {
		t.Fatalf("p = %v after one heard beep, want 0.25", p)
	}
	a.Observe(beep.Outcome{Heard: true})
	if p := probOf(t, a); p != 0.125 {
		t.Fatalf("p = %v after two heard beeps, want 0.125", p)
	}
}

func TestFeedbackDoublesOnSilenceCapped(t *testing.T) {
	a := mustFeedback(t, FeedbackConfig{})
	a.Observe(beep.Outcome{Heard: true})
	a.Observe(beep.Outcome{Heard: true}) // p = 1/8
	a.Observe(beep.Outcome{})            // p = 1/4
	if p := probOf(t, a); p != 0.25 {
		t.Fatalf("p = %v, want 0.25", p)
	}
	a.Observe(beep.Outcome{}) // p = 1/2
	a.Observe(beep.Outcome{}) // capped
	a.Observe(beep.Outcome{}) // capped
	if p := probOf(t, a); p != 0.5 {
		t.Fatalf("p = %v, want capped at 0.5", p)
	}
}

func TestFeedbackPowersOfTwoExact(t *testing.T) {
	// With factor 2 every reachable p must be an exact power of two, so
	// the float implementation matches Definition 1's integer exponents.
	a := mustFeedback(t, FeedbackConfig{})
	for i := 0; i < 100; i++ {
		a.Observe(beep.Outcome{Heard: i%3 != 0})
		p := probOf(t, a)
		frac, exp := math.Frexp(p)
		if frac != 0.5 {
			t.Fatalf("p = %v (frexp %v,%d) is not a power of two", p, frac, exp)
		}
	}
}

func TestFeedbackCustomFactor(t *testing.T) {
	a := mustFeedback(t, FeedbackConfig{Factor: 3})
	a.Observe(beep.Outcome{Heard: true})
	if p := probOf(t, a); math.Abs(p-0.5/3) > 1e-15 {
		t.Fatalf("p = %v, want 1/6", p)
	}
	a.Observe(beep.Outcome{})
	if p := probOf(t, a); p != 0.5 {
		t.Fatalf("p = %v, want back at 0.5", p)
	}
}

func TestFeedbackMinPFloor(t *testing.T) {
	a := mustFeedback(t, FeedbackConfig{MinP: 0.1})
	for i := 0; i < 10; i++ {
		a.Observe(beep.Outcome{Heard: true})
	}
	if p := probOf(t, a); p != 0.1 {
		t.Fatalf("p = %v, want floored at 0.1", p)
	}
}

func TestFeedbackConfigValidate(t *testing.T) {
	bad := []FeedbackConfig{
		{Factor: 1},
		{Factor: 0.5},
		{InitialP: -0.1},
		{InitialP: 1.5},
		{MaxP: 2},
		{MinP: -1},
		{MinP: 0.9, MaxP: 0.5},
	}
	for i, cfg := range bad {
		if _, err := NewFeedback(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
	if _, err := NewFeedback(FeedbackConfig{}); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestFeedbackInitialAboveCapClamped(t *testing.T) {
	a := mustFeedback(t, FeedbackConfig{InitialP: 1.0, MaxP: 0.5})
	if p := probOf(t, a); p != 0.5 {
		t.Fatalf("p = %v, want clamped to 0.5", p)
	}
}

func TestFeedbackBeepRate(t *testing.T) {
	a := mustFeedback(t, FeedbackConfig{})
	src := rng.New(42)
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if a.Beep(src) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.5) > 0.01 {
		t.Fatalf("beep rate %v, want ~0.5", rate)
	}
}

func TestFeedbackHeterogeneous(t *testing.T) {
	list := []float64{1.0 / 2, 1.0 / 3, 1.0 / 4}
	f, err := NewFeedback(FeedbackConfig{InitialPByID: list})
	if err != nil {
		t.Fatal(err)
	}
	ref := heterogeneousReference(FeedbackConfig{}, func(id int) float64 { return list[id%len(list)] })
	for id := range 7 {
		a, b := f(beep.NodeInfo{ID: id}), ref(beep.NodeInfo{ID: id})
		if got, want := probOf(t, a), list[id%len(list)]; got != want || probOf(t, b) != want {
			t.Fatalf("node %d: p = %v, reference %v, want %v", id, got, probOf(t, b), want)
		}
	}
	// The list's caller owns it: later edits reach no automaton.
	list[0] = 0.01
	if p := probOf(t, f(beep.NodeInfo{ID: 0})); p != 0.5 {
		t.Fatalf("node 0 p = %v after the caller edited its list, want 0.5", p)
	}
}

func TestGlobalSweepSchedule(t *testing.T) {
	a := NewGlobalSweep()(beep.NodeInfo{})
	src := rng.New(1)
	// The paper's sequence: 1, 1/2 | 1, 1/2, 1/4 | 1, 1/2, 1/4, 1/8 | ...
	want := []float64{1, 0.5, 1, 0.5, 0.25, 1, 0.5, 0.25, 0.125, 1, 0.5, 0.25, 0.125, 0.0625}
	for i, w := range want {
		got := probOf(t, a)
		if got != w {
			t.Fatalf("step %d: p = %v, want %v", i, got, w)
		}
		a.Beep(src) // advance the schedule
	}
}

func TestGlobalSweepBeepsAtP1(t *testing.T) {
	a := NewGlobalSweep()(beep.NodeInfo{})
	src := rng.New(2)
	if !a.Beep(src) {
		t.Fatal("first step has p=1 and must beep")
	}
}

func TestAfekOriginalSchedule(t *testing.T) {
	f := NewAfekOriginal(AfekOriginalConfig{StepsPerLevel: 2})
	a := f(beep.NodeInfo{N: 16, MaxDegree: 7})
	src := rng.New(3)
	// p starts at 1/8 and doubles every 2 steps; after one level at 1/2
	// the ramp restarts at 1/8.
	want := []float64{0.125, 0.125, 0.25, 0.25, 0.5, 0.5, 0.125, 0.125, 0.25}
	for i, w := range want {
		got := probOf(t, a)
		if got != w {
			t.Fatalf("step %d: p = %v, want %v", i, got, w)
		}
		a.Beep(src)
	}
}

func TestAfekOriginalDefaultStepsPerLevel(t *testing.T) {
	f := NewAfekOriginal(AfekOriginalConfig{})
	a := f(beep.NodeInfo{N: 1024, MaxDegree: 3})
	src := rng.New(4)
	// StepsPerLevel defaults to ceil(log2(1025)) = 11.
	for i := 0; i < 11; i++ {
		if p := probOf(t, a); p != 0.25 {
			t.Fatalf("step %d: p = %v, want 0.25", i, p)
		}
		a.Beep(src)
	}
	if p := probOf(t, a); p != 0.5 {
		t.Fatalf("after level: p = %v, want 0.5", p)
	}
}

func TestAfekOriginalDegreeZero(t *testing.T) {
	f := NewAfekOriginal(AfekOriginalConfig{StepsPerLevel: 1})
	a := f(beep.NodeInfo{N: 1, MaxDegree: 0})
	if p := probOf(t, a); p != 0.5 {
		t.Fatalf("isolated-network p = %v, want 1/2", p)
	}
}

func TestFixedProb(t *testing.T) {
	f, err := NewFixedProb(0.3)
	if err != nil {
		t.Fatal(err)
	}
	a := f(beep.NodeInfo{})
	if p := probOf(t, a); p != 0.3 {
		t.Fatalf("p = %v", p)
	}
	a.Observe(beep.Outcome{Heard: true})
	if p := probOf(t, a); p != 0.3 {
		t.Fatal("fixed probability must ignore feedback")
	}
	for _, bad := range []float64{0, -0.5, 1.5} {
		if _, err := NewFixedProb(bad); err == nil {
			t.Errorf("NewFixedProb(%v) accepted", bad)
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		f, err := NewFactory(Spec{Name: name})
		if err != nil {
			t.Fatalf("NewFactory(%q): %v", name, err)
		}
		a := f(beep.NodeInfo{N: 4, MaxDegree: 2})
		if a == nil {
			t.Fatalf("factory %q returned nil automaton", name)
		}
	}
	if _, err := NewFactory(Spec{Name: "nope"}); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := NewFactory(Spec{Name: NameFeedback, Feedback: FeedbackConfig{Factor: 0.5}}); err == nil {
		t.Fatal("invalid feedback config accepted through registry")
	}
}
