// Package beepmis is a Go implementation of the distributed maximal
// independent set (MIS) algorithms of Scott, Jeavons & Xu, "Feedback from
// nature: an optimal distributed algorithm for maximal independent set
// selection" (PODC 2013), together with the baselines the paper compares
// against and the simulation/runtime substrates needed to reproduce its
// evaluation.
//
// The headline algorithm runs in the beeping model: nodes broadcast
// anonymous one-bit "beeps" and adapt their beep probability from local
// feedback (halve it when a neighbour beeps, double it — up to 1/2 —
// otherwise). A node that beeps into silence joins the MIS. This takes
// O(log n) expected time steps and O(1) expected beeps per node on any
// graph.
//
// Quick start:
//
//	g := beepmis.GNP(500, 0.5, 1) // G(n=500, p=1/2), generation seed 1
//	res, err := beepmis.Solve(g, beepmis.AlgorithmFeedback, beepmis.WithSeed(42))
//	if err != nil { ... }
//	fmt.Println(res.Rounds, res.SetSize())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every figure and table in the paper.
package beepmis

import (
	"fmt"
	"io"

	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/obs"
	"beepmis/internal/rng"
	"beepmis/internal/runtime"
	"beepmis/internal/sim"
)

// Graph is an immutable simple undirected graph on vertices 0..N()-1,
// stored as compressed sparse rows.
type Graph = graph.Graph

// GraphBuilder accumulates edges and produces a Graph.
type GraphBuilder = graph.Builder

// FeedbackConfig tunes the feedback algorithm; its zero value is the
// published algorithm (p₀ = 1/2, halve/double, cap 1/2, no floor).
type FeedbackConfig = mis.FeedbackConfig

// FaultSpec declares a run's fault model for WithFaults: per-listener
// channel noise (Loss, Spurious), adversarial wake-up schedules, and
// transient outages with resume-or-reset recovery. The zero value is
// the perfect world. Every fault feature is engine-agnostic — noisy
// runs execute on both simulator engines, at any shard count, with
// bit-identical results.
type FaultSpec = fault.Spec

// FaultWake declares a wake-up schedule inside a FaultSpec: kind
// WakeUniform (each node wakes uniformly in [1, Window]), WakeDegree
// (hubs wake last, deterministically), or WakeExplicit (listed rounds).
type FaultWake = fault.Wake

// Wake schedule kinds for FaultWake.Kind.
const (
	WakeUniform  = fault.WakeUniform
	WakeDegree   = fault.WakeDegree
	WakeExplicit = fault.WakeExplicit
)

// FaultOutage takes one node down for rounds [From, From+For) inside a
// FaultSpec; Reset selects reset (fresh state) over resume recovery.
type FaultOutage = fault.Outage

// FaultVerifier incrementally checks independence every round and
// maximality at termination; see NewFaultVerifier.
type FaultVerifier = fault.Verifier

// EngineMetrics is the lock-free telemetry bundle WithMetrics attaches
// to a simulator run: per-phase wall-time histograms, per-round
// frontier sizes, propagation volume, and exchange-strategy counters.
// The zero value is ready to use, one bundle may aggregate any number
// of runs (including concurrent ones), and recording never draws
// randomness or allocates — results are bit-identical and the round
// loop stays allocation-free with metrics attached.
type EngineMetrics = obs.EngineMetrics

// NewFaultVerifier returns a per-round MIS safety checker for g. It is
// driven by the simulator automatically when solving with WithFaults;
// construct one directly to use with custom sim integrations.
func NewFaultVerifier(g *Graph) *FaultVerifier { return fault.NewVerifier(g) }

// NewGraphBuilder returns a builder for a graph with n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// GNP returns an Erdős–Rényi random graph G(n, p) generated from seed.
// A p ≤ 0 or NaN gives n isolated vertices, a p ≥ 1 the complete graph
// K_n, and a negative n the graph with no vertices.
func GNP(n int, p float64, seed uint64) *Graph { return graph.GNP(n, p, rng.New(seed)) }

// Grid returns the rows×cols rectangular grid graph.
func Grid(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// Complete returns the complete graph K_n.
func Complete(n int) *Graph { return graph.Complete(n) }

// CliqueFamily returns the Theorem 1 lower-bound family for parameter n.
func CliqueFamily(n int) *Graph { return graph.CliqueFamily(n) }

// UnitDisk returns a random unit-disk (wireless) graph with n nodes and
// connection radius r, generated from seed.
func UnitDisk(n int, r float64, seed uint64) *Graph {
	return graph.UnitDisk(n, r, rng.New(seed))
}

// ReadEdgeList parses a graph in the textual edge-list format produced
// by WriteEdgeList: an "n <count>" header, optionally followed by
// "m <edges>" (which must then equal the number of edge lines), and
// one edge per line as two vertex ids separated by spaces or tabs.
// Lines starting with '#' are comments. An edge listed twice, in
// either orientation, is an error naming its line, as are self-loops
// and out-of-range ids.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteEdgeList writes g in a textual edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Verify checks that set is a maximal independent set of g.
func Verify(g *Graph, set []bool) error { return graph.VerifyMIS(g, set) }

// Engine selects the adjacency representation the simulator's round
// loop runs over for the beeping algorithms. All engines produce
// bit-identical Results for a given seed; they differ only in speed
// and memory (see DESIGN.md for the selection heuristic).
type Engine = sim.Engine

const (
	// EngineAuto picks EngineColumnar when the packed adjacency matrix
	// fits the memory budget and the graph is dense enough for
	// word-parallel delivery to win, EngineSparse otherwise. This is
	// the default.
	EngineAuto = sim.EngineAuto
	// EngineScalar is the legacy name of an engine that walked
	// adjacency lists edge by edge; it now runs EngineSparse.
	EngineScalar = sim.EngineScalar
	// EngineBitset is the legacy name of an engine that ORed packed
	// adjacency rows under a per-node loop; it now runs EngineColumnar.
	EngineBitset = sim.EngineBitset
	// EngineColumnar runs the round loop over the dense packed
	// adjacency matrix: 64 listeners per word operation, O(n²/8) bytes
	// of memory, propagation sharded across cores (see WithShards).
	// The fastest engine on dense graphs.
	EngineColumnar = sim.EngineColumnar
	// EngineSparse runs the round loop over the O(n + m) CSR
	// representation instead, walking only the adjacency rows of
	// current emitters (sharded by emitter range, see WithShards).
	// Memory scales with edges rather than n², which is how sparse and
	// million-node graphs run.
	EngineSparse = sim.EngineSparse
)

// Algorithm selects an MIS algorithm.
type Algorithm string

// The implemented algorithms.
const (
	// AlgorithmFeedback is the paper's contribution: locally adapted
	// beep probabilities, O(log n) expected time.
	AlgorithmFeedback Algorithm = "feedback"
	// AlgorithmGlobalSweep is Afek et al.'s DISC'11 preset sweeping
	// schedule, Θ(log² n) expected time.
	AlgorithmGlobalSweep Algorithm = "globalsweep"
	// AlgorithmAfekOriginal is Afek et al.'s Science'11 schedule, which
	// assumes knowledge of n and the maximum degree.
	AlgorithmAfekOriginal Algorithm = "afek"
	// AlgorithmLubyPermutation is Luby's algorithm, random-priority
	// variant (multi-bit messages).
	AlgorithmLubyPermutation Algorithm = "luby-permutation"
	// AlgorithmLubyProbability is Luby's original marking variant.
	AlgorithmLubyProbability Algorithm = "luby-probability"
	// AlgorithmMetivier is the optimal-bit-complexity algorithm of
	// Métivier et al. (bit-by-bit random duels; the paper's ref [18]).
	AlgorithmMetivier Algorithm = "metivier"
	// AlgorithmGreedy is the centralised sequential scan.
	AlgorithmGreedy Algorithm = "greedy"
)

// Algorithms returns every selectable algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgorithmFeedback, AlgorithmGlobalSweep, AlgorithmAfekOriginal,
		AlgorithmLubyPermutation, AlgorithmLubyProbability,
		AlgorithmMetivier, AlgorithmGreedy,
	}
}

// Result reports a Solve call.
type Result struct {
	// InMIS is the computed maximal independent set, indexed by vertex.
	InMIS []bool
	// Rounds is the number of synchronous rounds (0 for the centralised
	// greedy baseline).
	Rounds int
	// TotalBeeps counts beeps across all nodes (beeping algorithms
	// only).
	TotalBeeps int
	// MessageBits counts message payload bits (Luby variants only).
	MessageBits int
	// Robustness carries the per-round fault verifier's findings; nil
	// unless the run was solved WithFaults.
	Robustness *RobustnessReport
}

// RobustnessReport is what the fault verifier observed during a noisy
// run: whether the output may be trusted, and how long it took to earn
// that trust.
type RobustnessReport struct {
	// IndependenceViolations counts adjacent-member breaches observed
	// across all rounds (loss noise can admit two adjacent joiners).
	IndependenceViolations int
	// StableRound is the last round MIS membership changed — the
	// honest convergence metric under faults, where the set can be
	// perturbed and repaired after first looking finished.
	StableRound int
	// Uncovered lists the nodes with no set coverage at termination (a
	// maximality hole left by, e.g., a reset of an established member).
	Uncovered []int
}

// SetSize returns the number of vertices in the computed set.
func (r *Result) SetSize() int {
	count := 0
	for _, in := range r.InMIS {
		if in {
			count++
		}
	}
	return count
}

// MeanBeepsPerNode returns TotalBeeps averaged over the graph's nodes.
func (r *Result) MeanBeepsPerNode() float64 {
	if len(r.InMIS) == 0 {
		return 0
	}
	return float64(r.TotalBeeps) / float64(len(r.InMIS))
}

// solveOptions collects Option settings.
type solveOptions struct {
	seed         uint64
	maxRounds    int
	feedback     FeedbackConfig
	concurrent   bool
	engine       Engine
	shards       int
	memoryBudget int64
	faults       *FaultSpec
	metrics      *EngineMetrics
}

// Option customises Solve.
type Option func(*solveOptions)

// WithSeed fixes the randomness seed; equal seeds give identical runs.
func WithSeed(seed uint64) Option {
	return func(o *solveOptions) { o.seed = seed }
}

// WithMaxRounds caps the number of synchronous rounds.
func WithMaxRounds(max int) Option {
	return func(o *solveOptions) { o.maxRounds = max }
}

// WithFeedbackConfig overrides the feedback algorithm's parameters.
func WithFeedbackConfig(cfg FeedbackConfig) Option {
	return func(o *solveOptions) { o.feedback = cfg }
}

// WithEngine pins the simulation engine for beeping algorithms instead
// of the default density-based auto-selection. Results are identical for
// every engine on a given seed; pinning matters only for performance
// work and for tests that cross-check the engines against each other.
// Combining a pin with WithConcurrentEngine is an error — the
// goroutine-per-node runtime has no simulator engine to pin.
func WithEngine(e Engine) Option {
	return func(o *solveOptions) { o.engine = e }
}

// WithShards bounds the goroutines the columnar and sparse engines fan
// beep propagation out to; 0 (the default) uses all cores and 1 keeps
// propagation serial. Results are bit-identical for every value — shard
// workers write disjoint words or buffers of their own, and OR is
// order-independent — so this is purely a performance knob, and every
// simulator engine honours it. Combining a non-zero value with
// WithConcurrentEngine is an error.
func WithShards(shards int) Option {
	return func(o *solveOptions) { o.shards = shards }
}

// WithMemoryBudget caps the bytes the auto engine selection will spend
// on the dense matrix of EngineColumnar (the CSR of EngineSparse is
// taken when the matrix does not fit); 0 (the default) means
// sim.DefaultMemoryBudget, 2 GiB. Purely a selection knob: results are
// bit-identical whichever engine the budget admits. Explicit WithEngine
// pins ignore it.
func WithMemoryBudget(bytes int64) Option {
	return func(o *solveOptions) { o.memoryBudget = bytes }
}

// WithFaults runs a beeping algorithm under the given fault model:
// per-listener beep loss and spurious noise, adversarial wake-up
// schedules, and transient outages (see FaultSpec). The fault layer is
// engine-agnostic — results stay bit-identical across every simulator
// engine and shard count for a given seed — and the returned Result
// carries a RobustnessReport from the per-round verifier. Combining a
// non-trivial spec with WithConcurrentEngine is an error: the
// goroutine-per-node runtime has no fault layer.
func WithFaults(spec FaultSpec) Option {
	return func(o *solveOptions) { o.faults = &spec }
}

// WithMetrics aggregates simulator telemetry for the run into m: phase
// timings, frontier sizes, propagation volume (see EngineMetrics). The
// bundle is purely observational — results, rng streams, and the
// zero-allocation round loop are untouched — so the same m can be
// shared across runs to accumulate a workload profile. Only the
// simulator engines record; the non-beeping baselines and the
// goroutine-per-node runtime leave m unchanged.
func WithMetrics(m *EngineMetrics) Option {
	return func(o *solveOptions) { o.metrics = m }
}

// WithConcurrentEngine runs beeping algorithms on the goroutine-per-node
// engine instead of the sequential simulator. Results are identical for
// a given seed; the concurrent engine exists to demonstrate (and test)
// the algorithms as real message-passing processes.
func WithConcurrentEngine() Option {
	return func(o *solveOptions) { o.concurrent = true }
}

// Solve computes a maximal independent set of g with the chosen
// algorithm. The error wraps the engine's failure (e.g. a round cap hit)
// if the run could not complete.
func Solve(g *Graph, algo Algorithm, opts ...Option) (*Result, error) {
	var o solveOptions
	for _, opt := range opts {
		opt(&o)
	}
	switch algo {
	case AlgorithmGreedy:
		return &Result{InMIS: mis.Greedy(g)}, nil
	case AlgorithmMetivier:
		mr := mis.Metivier(g, rng.New(o.seed))
		return &Result{InMIS: mr.InMIS, Rounds: mr.Rounds, MessageBits: mr.Bits}, nil
	case AlgorithmLubyPermutation, AlgorithmLubyProbability:
		variant := mis.LubyPermutation
		if algo == AlgorithmLubyProbability {
			variant = mis.LubyProbability
		}
		lr, err := mis.Luby(g, variant, rng.New(o.seed))
		if err != nil {
			return nil, err
		}
		return &Result{InMIS: lr.InMIS, Rounds: lr.Rounds, MessageBits: lr.Bits}, nil
	case AlgorithmFeedback, AlgorithmGlobalSweep, AlgorithmAfekOriginal:
		factory, bulk, err := mis.NewFactories(mis.Spec{Name: string(algo), Feedback: o.feedback})
		if err != nil {
			return nil, err
		}
		if o.concurrent {
			if o.engine != EngineAuto {
				return nil, fmt.Errorf("beepmis: WithEngine(%v) conflicts with WithConcurrentEngine (the goroutine-per-node runtime has no simulator engine)", o.engine)
			}
			if o.shards != 0 {
				return nil, fmt.Errorf("beepmis: WithShards(%d) conflicts with WithConcurrentEngine (sharded propagation belongs to the columnar simulator engine)", o.shards)
			}
			if o.faults.Enabled() {
				return nil, fmt.Errorf("beepmis: WithFaults conflicts with WithConcurrentEngine (the goroutine-per-node runtime has no fault layer)")
			}
			rr, err := runtime.Run(g, factory, rng.New(o.seed), runtime.Options{MaxRounds: o.maxRounds})
			if err != nil {
				return nil, err
			}
			return &Result{InMIS: rr.InMIS, Rounds: rr.Rounds, TotalBeeps: rr.TotalBeeps}, nil
		}
		simOpts := sim.Options{
			MaxRounds:    o.maxRounds,
			Engine:       o.engine,
			Bulk:         bulk,
			Shards:       o.shards,
			MemoryBudget: o.memoryBudget,
			Faults:       o.faults,
			Metrics:      o.metrics,
		}
		var verifier *fault.Verifier
		if o.faults.Enabled() {
			verifier = fault.NewVerifier(g)
			simOpts.OnMISDelta = verifier.ObserveRound
		}
		sr, err := sim.Run(g, factory, rng.New(o.seed), simOpts)
		if err != nil {
			return nil, err
		}
		res := &Result{InMIS: sr.InMIS, Rounds: sr.Rounds, TotalBeeps: sr.TotalBeeps}
		if verifier != nil {
			res.Robustness = &RobustnessReport{
				IndependenceViolations: verifier.ViolationCount(),
				StableRound:            verifier.LastChangeRound(),
				Uncovered:              verifier.Uncovered(nil),
			}
		}
		return res, nil
	default:
		return nil, fmt.Errorf("beepmis: unknown algorithm %q (have %v)", algo, Algorithms())
	}
}
