package mis

import (
	"fmt"
	"math"

	"beepmis/internal/beep"
	"beepmis/internal/rng"
)

// sweepNode implements the refined Afek et al. DISC'11 schedule described
// in §1 of the paper: the computation is divided into phases 1, 2, 3, …;
// phase k has k+1 steps during which p takes the values
// 1, 1/2, 1/4, …, 2^-k. All nodes advance through the same global
// schedule in lockstep, ignoring feedback — which is exactly the class of
// algorithms Theorem 1 proves needs Ω(log² n) steps.
type sweepNode struct {
	phase int // current phase k >= 1
	step  int // step within phase, 0..phase
}

var _ beep.Automaton = (*sweepNode)(nil)
var _ beep.ProbabilityReporter = (*sweepNode)(nil)

func (s *sweepNode) BeepProbability() float64 {
	return math.Ldexp(1, -s.step) // 2^-step
}

func (s *sweepNode) Beep(r *rng.Source) bool {
	p := s.BeepProbability()
	s.step++
	if s.step > s.phase {
		s.phase++
		s.step = 0
	}
	return r.Bernoulli(p)
}

func (s *sweepNode) Observe(beep.Outcome) {} // global schedule: feedback unused

// NewGlobalSweep returns a factory for the DISC'11 sweeping schedule.
func NewGlobalSweep() beep.Factory {
	return func(beep.NodeInfo) beep.Automaton {
		return &sweepNode{phase: 1, step: 0}
	}
}

// AfekOriginalConfig parameterises the Science'11 schedule, which —
// unlike the DISC'11 refinement — assumes every node knows the network
// size n and (an upper bound on) the maximum degree D.
type AfekOriginalConfig struct {
	// StepsPerLevel is the number of time steps spent at each
	// probability level before doubling; the paper's analysis takes it
	// Θ(log n). If zero it defaults to ceil(log2 n) computed per network.
	StepsPerLevel int
}

// afekNode runs the globally-computed schedule of Afek et al., "A
// biological solution to a fundamental distributed computing problem"
// (Science 331, 2011): p starts at 1/(D+1) and doubles every
// StepsPerLevel steps up to 1/2. After one level at 1/2 the ramp
// restarts at 1/(D+1), so the schedule cycles like the DISC'11 sweep
// and ends with probability 1. (Holding p at 1/2 instead would leave a
// dense graph whose nodes are all still active at the top of the ramp
// with a join chance of about 2^-(n/2+1) per round.)
type afekNode struct {
	p       float64
	initial float64 // 1/(D+1), where every ramp starts
	perLvl  int
	counter int
}

var _ beep.Automaton = (*afekNode)(nil)
var _ beep.ProbabilityReporter = (*afekNode)(nil)

func (a *afekNode) BeepProbability() float64 { return a.p }

func (a *afekNode) Beep(r *rng.Source) bool {
	p := a.p
	a.counter++
	if a.counter >= a.perLvl {
		a.counter = 0
		a.p = nextAfekLevel(a.p, a.initial)
	}
	return r.Bernoulli(p)
}

// nextAfekLevel is the probability of the level after p: double it, up
// to 1/2, and restart the ramp at initial after the level at 1/2.
func nextAfekLevel(p, initial float64) float64 {
	if p >= 0.5 {
		return initial
	}
	return min(2*p, 0.5)
}

func (a *afekNode) Observe(beep.Outcome) {} // global schedule: feedback unused

// NewAfekOriginal returns a factory for the Science'11 schedule.
func NewAfekOriginal(cfg AfekOriginalConfig) beep.Factory {
	return func(info beep.NodeInfo) beep.Automaton {
		perLvl, initial := afekParams(cfg, info.N, info.MaxDegree)
		return &afekNode{p: initial, initial: initial, perLvl: perLvl}
	}
}

// afekParams resolves the schedule's steps per level (ceil(log2(n+1))
// unless cfg pins it) and its starting probability 1/(D+1).
func afekParams(cfg AfekOriginalConfig, n, maxDegree int) (perLvl int, initial float64) {
	perLvl = cfg.StepsPerLevel
	if perLvl <= 0 {
		perLvl = max(1, int(math.Ceil(math.Log2(float64(n+1)))))
	}
	return perLvl, 1 / float64(max(maxDegree, 1)+1)
}

// fixedNode beeps with a constant probability forever: the simplest
// member of the globally-preset class that Theorem 1 bounds, available
// to scenario specs as the "fixed" algorithm.
type fixedNode struct{ p float64 }

var _ beep.Automaton = (*fixedNode)(nil)
var _ beep.ProbabilityReporter = (*fixedNode)(nil)

func (f *fixedNode) Beep(r *rng.Source) bool  { return r.Bernoulli(f.p) }
func (f *fixedNode) Observe(beep.Outcome)     {}
func (f *fixedNode) BeepProbability() float64 { return f.p }

// NewFixedProb returns a factory whose nodes beep with constant
// probability p.
func NewFixedProb(p float64) (beep.Factory, error) {
	if p <= 0 || p > 1 {
		return nil, fmt.Errorf("mis: fixed probability %v outside (0,1]", p)
	}
	return func(beep.NodeInfo) beep.Automaton {
		return &fixedNode{p: p}
	}, nil
}
