// Package mis implements the paper's maximal-independent-set algorithms:
// the feedback algorithm of Scott, Jeavons & Xu (the core contribution,
// §4 Definition 1 / Table 1), the globally-swept schedule of Afek et al.
// DISC'11 (§1), the original Afek et al. Science'11 schedule that assumes
// knowledge of n and the maximum degree, a fixed-probability strawman
// (the simplest member of the Theorem 1 lower-bound class), Luby's
// algorithm as the classical O(log n) baseline, and a centralised greedy
// reference.
package mis

import (
	"fmt"

	"beepmis/internal/beep"
	"beepmis/internal/rng"
)

// FeedbackConfig parameterises the paper's feedback algorithm. The paper
// proves O(log n) expected time for halving/doubling (Factor = 2) with
// InitialP = MaxP = 1/2, and its conclusion notes the analysis tolerates a
// wide range of factors and initial values, which "may vary between
// nodes and over time"; the ablation experiments sweep them.
type FeedbackConfig struct {
	// InitialP is the starting beep probability. Default 1/2.
	InitialP float64
	// Factor is the multiplicative feedback step: hearing a beep divides
	// p by Factor, silence multiplies it by Factor (capped at MaxP).
	// Default 2 (the paper's halve/double rule). Must be > 1.
	Factor float64
	// MaxP caps the beep probability. Default 1/2, per Definition 1
	// (n(t,v) >= 1 ⇔ p <= 1/2).
	MaxP float64
	// MinP floors the beep probability; 0 means no floor (the paper has
	// none — p may shrink indefinitely while a node keeps hearing
	// beeps). Exposed for the probability-floor ablation.
	MinP float64
	// FactorMax, when above Factor, makes every adjustment draw its
	// factor uniformly from [Factor, FactorMax], from the node's own
	// stream, so the step varies between nodes and over time. 0 (or
	// Factor itself) keeps the fixed step.
	FactorMax float64
	// InitialPByID, when non-empty, overrides InitialP per node: node v
	// starts at InitialPByID[v mod len]. It holds 1 to 64 entries, each
	// in (0, MaxP].
	InitialPByID []float64
}

// maxInitialPByID bounds the length of FeedbackConfig.InitialPByID.
const maxInitialPByID = 64

func (c FeedbackConfig) withDefaults() FeedbackConfig {
	if c.InitialP == 0 {
		c.InitialP = 0.5
	}
	if c.Factor == 0 {
		c.Factor = 2
	}
	if c.MaxP == 0 {
		c.MaxP = 0.5
	}
	return c
}

// perNode reports whether the configuration needs per-node automata:
// per-step factor draws and per-node initial probabilities have no
// columnar kernel.
func (c FeedbackConfig) perNode() bool {
	c = c.withDefaults()
	return c.FactorMax > c.Factor || len(c.InitialPByID) > 0
}

// Validate reports whether the configuration is usable.
func (c FeedbackConfig) Validate() error {
	c = c.withDefaults()
	if c.Factor <= 1 {
		return fmt.Errorf("mis: feedback factor must be > 1, got %v", c.Factor)
	}
	if c.FactorMax != 0 && c.FactorMax < c.Factor {
		return fmt.Errorf("mis: feedback factor range [%v, %v] is empty (need factor_max >= factor)", c.Factor, c.FactorMax)
	}
	if c.InitialP <= 0 || c.InitialP > 1 {
		return fmt.Errorf("mis: feedback initial probability %v outside (0,1]", c.InitialP)
	}
	if c.MaxP <= 0 || c.MaxP > 1 {
		return fmt.Errorf("mis: feedback max probability %v outside (0,1]", c.MaxP)
	}
	if c.MinP < 0 || c.MinP > c.MaxP {
		return fmt.Errorf("mis: feedback min probability %v outside [0, MaxP]", c.MinP)
	}
	if c.InitialPByID != nil && (len(c.InitialPByID) == 0 || len(c.InitialPByID) > maxInitialPByID) {
		return fmt.Errorf("mis: feedback initial_p_by_id has %d entries (want 1 to %d)", len(c.InitialPByID), maxInitialPByID)
	}
	for i, p := range c.InitialPByID {
		if !(p > 0 && p <= c.MaxP) {
			return fmt.Errorf("mis: feedback initial_p_by_id[%d] = %v outside (0, max_p %v]", i, p, c.MaxP)
		}
	}
	return nil
}

// feedbackNode is the per-node automaton of Table 1: beep with local
// probability p; divide p by the factor when a neighbour beeps, multiply
// it (up to MaxP) otherwise. With the default Factor = 2 every value of
// p is a power of two, which float64 represents exactly, so the
// executions match Definition 1's integer-exponent formulation
// bit-for-bit. A jittered configuration (FactorMax > Factor) draws each
// adjustment's factor from the node's stream, which Beep hands it: the
// engines call Beep and Observe in the same per-node order, so every
// engine sees the same draws.
type feedbackNode struct {
	p   float64
	cfg *FeedbackConfig // shared by every node, defaults applied
	src *rng.Source     // the node's stream, captured by Beep
}

var _ beep.Automaton = (*feedbackNode)(nil)
var _ beep.ProbabilityReporter = (*feedbackNode)(nil)

func (f *feedbackNode) Beep(r *rng.Source) bool {
	f.src = r
	return r.Bernoulli(f.p)
}

func (f *feedbackNode) Observe(o beep.Outcome) {
	factor := f.cfg.Factor
	if f.cfg.FactorMax > factor && f.src != nil {
		factor += float64((f.cfg.FactorMax - factor) * f.src.Float64())
	}
	if o.Heard {
		f.p /= factor
		if f.cfg.MinP > 0 && f.p < f.cfg.MinP {
			f.p = f.cfg.MinP
		}
		return
	}
	f.p *= factor
	if f.p > f.cfg.MaxP {
		f.p = f.cfg.MaxP
	}
}

func (f *feedbackNode) BeepProbability() float64 { return f.p }

// NewFeedback returns a factory for the paper's feedback algorithm.
// NewFeedback(FeedbackConfig{}) gives exactly the published algorithm.
func NewFeedback(cfg FeedbackConfig) (beep.Factory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cfg.InitialPByID = append([]float64(nil), cfg.InitialPByID...)
	start := min(cfg.InitialP, cfg.MaxP)
	shared := &cfg
	return func(info beep.NodeInfo) beep.Automaton {
		p := start
		if k := len(shared.InitialPByID); k > 0 {
			p = shared.InitialPByID[info.ID%k]
		}
		return &feedbackNode{p: p, cfg: shared}
	}, nil
}
