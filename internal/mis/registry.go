package mis

import (
	"fmt"
	"sort"

	"beepmis/internal/beep"
)

// Algorithm names accepted by NewFactory and the CLIs.
const (
	NameFeedback    = "feedback"
	NameGlobalSweep = "globalsweep"
	NameAfek        = "afek"
	NameFixed       = "fixed"
)

// Spec selects and configures a beeping algorithm by name; the zero
// values of the embedded configs mean "paper defaults".
type Spec struct {
	// Name is one of NameFeedback, NameGlobalSweep, NameAfek, NameFixed.
	Name string
	// Feedback configures the feedback algorithm (Name == NameFeedback).
	Feedback FeedbackConfig
	// Afek configures the Science'11 schedule (Name == NameAfek).
	Afek AfekOriginalConfig
	// FixedP is the constant probability for Name == NameFixed; zero
	// defaults to 1/2.
	FixedP float64
}

// NewFactory builds the per-node automaton factory for spec.
func NewFactory(spec Spec) (beep.Factory, error) {
	factory, _, err := NewFactories(spec)
	return factory, err
}

// NewFactories builds both execution forms of spec's algorithm: the
// per-node automaton factory (every engine) and the columnar bulk kernel
// (the columnar engine's fast path). The bulk factory is nil for
// algorithms without a kernel — the fixed-probability strawman, and
// feedback with per-step factor draws or per-node initial probabilities
// — in which case engines fall back to per-node automata. Both forms are
// bit-identical for any seed.
func NewFactories(spec Spec) (beep.Factory, beep.BulkFactory, error) {
	switch spec.Name {
	case NameFeedback:
		factory, err := NewFeedback(spec.Feedback)
		if err != nil || spec.Feedback.perNode() {
			return factory, nil, err
		}
		bulk, err := NewFeedbackBulk(spec.Feedback)
		if err != nil {
			return nil, nil, err
		}
		return factory, bulk, nil
	case NameGlobalSweep:
		return NewGlobalSweep(), NewGlobalSweepBulk(), nil
	case NameAfek:
		return NewAfekOriginal(spec.Afek), NewAfekOriginalBulk(spec.Afek), nil
	case NameFixed:
		p := spec.FixedP
		if p == 0 {
			p = 0.5
		}
		factory, err := NewFixedProb(p)
		if err != nil {
			return nil, nil, err
		}
		return factory, nil, nil
	default:
		return nil, nil, fmt.Errorf("mis: unknown algorithm %q (have %v)", spec.Name, Names())
	}
}

// Names returns the registered beeping-algorithm names, sorted.
func Names() []string {
	names := []string{NameFeedback, NameGlobalSweep, NameAfek, NameFixed}
	sort.Strings(names)
	return names
}
