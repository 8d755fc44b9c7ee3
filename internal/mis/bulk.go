package mis

import (
	"fmt"
	"math"
	"math/bits"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

// Bulk (columnar) kernels: one object per algorithm holding every node's
// state as packed arrays, fulfilling beep.BulkAutomaton. Each kernel is
// the struct-of-arrays transliteration of its per-node automaton and
// must draw from the per-node rng streams exactly what the automaton
// would — the per-node types in feedback.go and schedules.go stay as the
// executable reference, and TestBulkKernelsMatchAutomata pins the two
// against each other on random masks, configs, and seeds.

// feedbackBulk is feedbackNode over packed probabilities: Table 1's
// halve/double rule applied 64 nodes per observed word.
type feedbackBulk struct {
	p     []float64
	start float64 // initial probability, restored by ResetNodes
	cfg   FeedbackConfig
}

var _ beep.BulkAutomaton = (*feedbackBulk)(nil)

// NewFeedbackBulk returns the columnar kernel of the feedback algorithm
// configured like NewFeedback(cfg). The two are interchangeable beyond
// speed: for any seed the kernel reproduces the per-node automata
// bit-for-bit. A configuration with per-step factor draws or per-node
// initial probabilities has no kernel.
func NewFeedbackBulk(cfg FeedbackConfig) (beep.BulkFactory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.perNode() {
		return nil, fmt.Errorf("mis: the feedback kernel has no per-step factor draws or per-node initial probabilities (run the per-node automata)")
	}
	cfg = cfg.withDefaults()
	start := cfg.InitialP
	if start > cfg.MaxP {
		start = cfg.MaxP
	}
	return func(net beep.NetworkInfo) beep.BulkAutomaton {
		k := &feedbackBulk{p: make([]float64, net.N), start: start, cfg: cfg}
		for v := range k.p {
			k.p[v] = start
		}
		return k
	}, nil
}

func (k *feedbackBulk) ResetNodes(nodes []int) {
	for _, v := range nodes {
		k.p[v] = k.start
	}
}

//misvet:noalloc
func (k *feedbackBulk) BeepRange(active graph.Bitset, streams []rng.Source, out graph.Bitset, loWord, hiWord int) {
	for wi := loWord; wi < hiWord; wi++ {
		w := active[wi]
		base := wi << 6
		var beeps uint64
		for w != 0 {
			b := uint(bits.TrailingZeros64(w))
			w &= w - 1
			if streams[base+int(b)].Bernoulli(k.p[base+int(b)]) {
				beeps |= 1 << b
			}
		}
		out[wi] |= beeps
	}
}

//misvet:noalloc
func (k *feedbackBulk) ObserveRange(observed, beeped, heard graph.Bitset, loWord, hiWord int) {
	cfg := k.cfg
	for wi := loWord; wi < hiWord; wi++ {
		w := observed[wi]
		base := wi << 6
		hw := heard[wi]
		for w != 0 {
			b := uint(bits.TrailingZeros64(w))
			w &= w - 1
			v := base + int(b)
			if hw&(1<<b) != 0 {
				k.p[v] /= cfg.Factor
				if cfg.MinP > 0 && k.p[v] < cfg.MinP {
					k.p[v] = cfg.MinP
				}
			} else {
				k.p[v] *= cfg.Factor
				if k.p[v] > cfg.MaxP {
					k.p[v] = cfg.MaxP
				}
			}
		}
	}
}

func (k *feedbackBulk) BeepProbabilities(dst []float64) { copy(dst, k.p) }

// sweepBulk is sweepNode over packed phase/step counters. Counters
// advance only on BeepRange, so dormant (not yet woken) nodes hold their
// schedule position exactly as per-node automata do.
type sweepBulk struct {
	phase, step []int32
}

var _ beep.BulkAutomaton = (*sweepBulk)(nil)

// NewGlobalSweepBulk returns the columnar kernel of the DISC'11 sweeping
// schedule, interchangeable with NewGlobalSweep.
func NewGlobalSweepBulk() beep.BulkFactory {
	return func(net beep.NetworkInfo) beep.BulkAutomaton {
		k := &sweepBulk{phase: make([]int32, net.N), step: make([]int32, net.N)}
		for v := range k.phase {
			k.phase[v] = 1
		}
		return k
	}
}

//misvet:noalloc
func (k *sweepBulk) BeepRange(active graph.Bitset, streams []rng.Source, out graph.Bitset, loWord, hiWord int) {
	for wi := loWord; wi < hiWord; wi++ {
		w := active[wi]
		base := wi << 6
		var beeps uint64
		for w != 0 {
			b := uint(bits.TrailingZeros64(w))
			w &= w - 1
			v := base + int(b)
			p := math.Ldexp(1, -int(k.step[v]))
			k.step[v]++
			if k.step[v] > k.phase[v] {
				k.phase[v]++
				k.step[v] = 0
			}
			if streams[v].Bernoulli(p) {
				beeps |= 1 << b
			}
		}
		out[wi] |= beeps
	}
}

func (k *sweepBulk) ObserveRange(observed, beeped, heard graph.Bitset, loWord, hiWord int) {} // global schedule: feedback unused

func (k *sweepBulk) ResetNodes(nodes []int) {
	for _, v := range nodes {
		k.phase[v] = 1
		k.step[v] = 0
	}
}

func (k *sweepBulk) BeepProbabilities(dst []float64) {
	for v := range dst {
		dst[v] = math.Ldexp(1, -int(k.step[v]))
	}
}

// afekBulk is afekNode over packed probability and level-counter arrays.
type afekBulk struct {
	p       []float64
	counter []int32
	perLvl  int32
	initial float64 // starting probability 1/(D+1), restored by ResetNodes
}

var _ beep.BulkAutomaton = (*afekBulk)(nil)

// NewAfekOriginalBulk returns the columnar kernel of the Science'11
// schedule, interchangeable with NewAfekOriginal.
func NewAfekOriginalBulk(cfg AfekOriginalConfig) beep.BulkFactory {
	return func(net beep.NetworkInfo) beep.BulkAutomaton {
		perLvl, initial := afekParams(cfg, net.N, net.MaxDegree)
		k := &afekBulk{
			p:       make([]float64, net.N),
			counter: make([]int32, net.N),
			perLvl:  int32(perLvl),
			initial: initial,
		}
		for v := range k.p {
			k.p[v] = k.initial
		}
		return k
	}
}

//misvet:noalloc
func (k *afekBulk) BeepRange(active graph.Bitset, streams []rng.Source, out graph.Bitset, loWord, hiWord int) {
	for wi := loWord; wi < hiWord; wi++ {
		w := active[wi]
		base := wi << 6
		var beeps uint64
		for w != 0 {
			b := uint(bits.TrailingZeros64(w))
			w &= w - 1
			v := base + int(b)
			p := k.p[v]
			k.counter[v]++
			if k.counter[v] >= k.perLvl {
				k.counter[v] = 0
				k.p[v] = nextAfekLevel(p, k.initial)
			}
			if streams[v].Bernoulli(p) {
				beeps |= 1 << b
			}
		}
		out[wi] |= beeps
	}
}

func (k *afekBulk) ObserveRange(observed, beeped, heard graph.Bitset, loWord, hiWord int) {} // global schedule: feedback unused

func (k *afekBulk) ResetNodes(nodes []int) {
	for _, v := range nodes {
		k.p[v] = k.initial
		k.counter[v] = 0
	}
}

func (k *afekBulk) BeepProbabilities(dst []float64) { copy(dst, k.p) }
