// Package sim executes beeping-model algorithms on a graph in a fast,
// deterministic, synchronous simulator. It implements exactly the
// two-exchange time step of the paper (Table 1): first exchange — nodes
// beep with their current probability and everyone learns whether a
// neighbour beeped; second exchange — a node that beeped into silence
// joins the MIS and announces it, and the announcement deactivates its
// neighbours.
//
// The simulator additionally supports fault injection (independent
// per-edge beep loss on the first exchange, node crashes at chosen
// rounds, and the channel noise, wake-up schedules and outages of
// internal/fault) and a per-round trace hook, used by the robustness
// experiments and the visualising examples.
//
// One round loop executes the time step on packed words: node masks are
// bitsets, the algorithm runs as a bulk kernel over packed per-node
// state (or through an adapter over its per-node automata), and both
// exchanges are sharded across cores. Two engines choose the adjacency
// representation it reads: the dense packed matrix (EngineColumnar, 64
// listeners per machine operation) or the graph's own compressed
// sparse rows (EngineSparse, memory linear in the edges).
// Options.Engine selects one; EngineAuto (the default) picks by graph
// density and size.
// Engines are bit-identical in their results — only the wall clock and
// the memory differ.
package sim

import (
	"errors"
	"fmt"
	"sort"

	"beepmis/internal/beep"
	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/obs"
	"beepmis/internal/rng"
)

// DefaultMaxRounds bounds a run when Options.MaxRounds is zero. It is far
// above the O(log n) expectation for any graph this simulator can hold in
// memory, so hitting it indicates a genuinely non-terminating schedule
// (e.g. a badly tuned fixed-probability strawman).
const DefaultMaxRounds = 1 << 20

// ErrTooManyRounds is wrapped in the error returned by Run when the round
// limit is reached before every node terminates.
var ErrTooManyRounds = errors.New("sim: round limit reached before termination")

// Snapshot is the per-round view passed to the trace hook. The slices are
// owned by the simulator and reused between rounds; a hook that wants to
// retain them must copy.
type Snapshot struct {
	// Round is the 1-based index of the time step that just completed.
	Round int
	// States holds each node's state after the step.
	States []beep.State
	// Beeped reports which nodes beeped in the step's first exchange.
	Beeped []bool
	// Probabilities holds each node's beep probability going into the
	// *next* step, when the automaton reports it (NaN otherwise, and 0
	// for terminal nodes). Only populated when a hook is installed.
	Probabilities []float64
	// Active is the number of nodes still active after the step.
	Active int
}

// Options configures a simulation run. The zero value runs the pure
// paper model: no faults, no trace, DefaultMaxRounds.
type Options struct {
	// MaxRounds caps the number of time steps; 0 means DefaultMaxRounds.
	MaxRounds int
	// Engine selects the adjacency representation (see Engine). The
	// default, EngineAuto, takes the dense matrix on graphs dense
	// enough for word-parallel delivery to win and the CSR otherwise.
	// Results are identical for every engine on a given seed.
	Engine Engine
	// Bulk, if non-nil, supplies the algorithm's columnar kernel — all
	// nodes' state as packed arrays (see beep.BulkAutomaton). When nil,
	// the round loop drives the factory's per-node automata through an
	// adapter with bit-identical results, so every algorithm runs on
	// every engine; the kernel is only faster.
	Bulk beep.BulkFactory
	// Shards bounds the goroutines the columnar and sparse engines fan
	// their round phases out to, partitioned by word ranges. 0 means
	// GOMAXPROCS; 1 keeps every phase on the calling goroutine. Results
	// are bit-identical for every value — workers write disjoint words
	// or buffers of their own, and OR is order-independent.
	Shards int
	// BeepLoss is the probability that a given neighbour fails to hear a
	// given beep in the first exchange (each beeper→listener pair lost
	// independently, persistent MIS beeps included). A listener with k
	// emitting neighbours therefore hears with probability 1 − BeepLoss^k,
	// which is how every engine draws it: one uniform per (listener,
	// round) from the fault layer (fault.BeepLoss), before any channel
	// noise. Join announcements (second exchange) are assumed reliable,
	// so domination stays safe; what loss can break is *independence*,
	// which the ablate-loss experiment quantifies. Must be in [0, 1);
	// non-zero values support at most fault.MaxChannelNodes nodes.
	BeepLoss float64
	// CrashAtRound lists nodes to crash at the start of the given
	// (1-based) round. Crashed nodes stop participating entirely.
	CrashAtRound map[int][]int
	// WakeAt, if non-nil, gives the (1-based) round at which each node
	// wakes up; before that the node is dormant — it neither beeps nor
	// listens. Entries <= 1 wake immediately. Enabling wake-up also
	// makes MIS members beep persistently (the standard fix from Afek
	// et al. DISC'11): a late waker adjacent to an established MIS
	// member must hear it, or it could beep into perceived silence and
	// violate independence.
	WakeAt []int
	// Faults declares the run's deterministic fault model: per-listener
	// channel noise (loss and spurious beeps), adversarial wake-up
	// schedules (which resolve into WakeAt before the round loop; a
	// spec wake and an explicit WakeAt together are an error), and
	// transient outages with resume-or-reset recovery. All randomness
	// is drawn from dedicated per-(node, round) streams, so the engines
	// stay bit-identical under any spec and any shard count. Outages
	// and persistent MIS behaviour compose: while any outage schedule
	// is present, MIS members beep and re-announce persistently (as
	// under wake-up), except while themselves down.
	Faults *fault.Spec
	// Metrics, if non-nil, receives the run's instrumentation: per-phase
	// wall time, frontier sizes, exchange decisions, and shard balance
	// (see obs.EngineMetrics). One bundle may be shared by concurrent
	// runs — every record operation is a lock-free atomic. Recording
	// never draws from an rng stream and never allocates, so enabling
	// metrics changes neither the results (bit-identical, all engines)
	// nor the round loop's steady-state allocation profile.
	Metrics *obs.EngineMetrics
	// OnRound, if non-nil, is called after every time step.
	OnRound func(Snapshot)
	// OnMISDelta, if non-nil, is called after any time step in which
	// MIS membership changed: joined lists the nodes that entered the
	// set this round, left the nodes a reset recovery removed (both
	// ascending). The slices are owned by the simulator and reused
	// between rounds. fault.Verifier's ObserveRound plugs in directly.
	OnMISDelta func(round int, joined, left []int)
}

// Result reports a completed (or round-capped) simulation.
type Result struct {
	// InMIS is the membership vector of the computed independent set.
	InMIS []bool
	// States holds each node's final state.
	States []beep.State
	// Rounds is the number of time steps executed.
	Rounds int
	// Beeps counts first-exchange beeps per node — the quantity of
	// Figure 5 and Theorem 6.
	Beeps []int
	// TotalBeeps is the sum of Beeps.
	TotalBeeps int
	// JoinAnnouncements counts second-exchange announcements (equal to
	// the number of MIS members that joined while having neighbours).
	JoinAnnouncements int
	// PersistentBeeps counts the extra keep-alive beeps MIS members
	// emit when wake-up scheduling is enabled. Kept separate from Beeps
	// so the Theorem 6 accounting stays comparable to the paper.
	PersistentBeeps int
	// Terminated reports whether every node reached a terminal state
	// within the round limit.
	Terminated bool
}

// MeanBeepsPerNode returns TotalBeeps averaged over all nodes.
func (r *Result) MeanBeepsPerNode() float64 {
	if len(r.Beeps) == 0 {
		return 0
	}
	return float64(r.TotalBeeps) / float64(len(r.Beeps))
}

// Run simulates factory's algorithm on g, drawing node randomness from
// per-node streams of master so the execution is a pure function of
// (g, factory, master seed, opts). The columnar engine reads g's packed
// matrix (g.Matrix, built once per graph); the sparse engine reads g's
// rows directly. It returns an error wrapping ErrTooManyRounds if the
// round cap is hit; the partial Result is still returned alongside it
// for inspection.
func Run(g *graph.Graph, factory beep.Factory, master *rng.Source, opts Options) (*Result, error) {
	r, err := prepare(g, factory, master, opts)
	if err != nil {
		return nil, err
	}
	if r.engine == EngineColumnar {
		return runColumnar(r, g.Matrix())
	}
	return runColumnar(r, g)
}

// preparedRun is a run whose options have passed validation: the
// engine resolved, wake schedules resolved into opts.WakeAt, the fault
// spec compiled into a plan, and a bulk kernel chosen. Only the
// adjacency representation is left for the caller to supply.
type preparedRun struct {
	g         *graph.Graph
	master    *rng.Source
	opts      Options
	engine    Engine // EngineColumnar or EngineSparse
	maxRounds int
	bulk      beep.BulkFactory
	loss      *fault.BeepLoss // nil without beep loss
	plan      *faultPlan
}

// prepare is Run's prelude: it validates opts against g — beep loss,
// shards, the engine, WakeAt, crashes and the fault spec —
// resolves the engine and any declarative wake schedule, and
// substitutes the per-node adapter when the algorithm has no kernel.
func prepare(g *graph.Graph, factory beep.Factory, master *rng.Source, opts Options) (*preparedRun, error) {
	n := g.N()
	loss, err := fault.NewBeepLoss(opts.BeepLoss, n)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("sim: Shards %d negative (0 = GOMAXPROCS, 1 = serial)", opts.Shards)
	}
	engine := ResolveEngine(g, opts)
	if engine != EngineColumnar && engine != EngineSparse {
		return nil, fmt.Errorf("sim: unknown engine %v", opts.Engine)
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	if opts.WakeAt != nil && len(opts.WakeAt) != n {
		return nil, fmt.Errorf("sim: WakeAt has %d entries for %d nodes", len(opts.WakeAt), n)
	}
	if err := ValidateCrashes(n, opts.CrashAtRound); err != nil {
		return nil, err
	}
	fs := opts.Faults
	if !fs.Enabled() {
		fs = nil
	}
	if fs != nil {
		if err := fs.Validate(n); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if err := fs.ValidateAgainstCrashes(opts.CrashAtRound); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if err := fs.ValidateAgainstRounds(maxRounds); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if fs.Wake != nil {
			if opts.WakeAt != nil {
				return nil, fmt.Errorf("sim: Faults.Wake conflicts with an explicit WakeAt schedule (pick one)")
			}
			// Resolve the declarative schedule into per-node rounds once,
			// up front, so every engine executes the identical WakeAt.
			opts.WakeAt = fault.ResolveWake(fs.Wake, g, master)
		}
	}
	bulk := opts.Bulk
	if bulk == nil {
		bulk = perNodeBulkFactory(factory)
	}
	return &preparedRun{g: g, master: master, opts: opts, engine: engine, maxRounds: maxRounds, bulk: bulk, loss: loss, plan: newFaultPlan(fs)}, nil
}

// ValidateCrashes rejects malformed Options.CrashAtRound schedules up
// front: node ids outside [0, n), rounds before the first time step, and
// nodes scheduled to crash more than once. Silently skipping such
// entries (the historical behaviour) hid typos in fault-injection
// experiments — a crash that never happens looks exactly like
// robustness. Every error names the offending node id and round, so the
// experimenter can find the typo without diffing the schedule; rounds
// are visited in ascending order, so the first problem reported is
// deterministic whatever the map's iteration order. Run calls it
// internally; it is exported so layers that accept crash schedules from
// untrusted input (the scenario compiler) can reject them at submission
// time rather than at execution time.
func ValidateCrashes(n int, crashes map[int][]int) error {
	if len(crashes) == 0 {
		return nil
	}
	rounds := make([]int, 0, len(crashes))
	for round := range crashes {
		rounds = append(rounds, round)
	}
	sort.Ints(rounds)
	crashRound := make(map[int]int, len(crashes))
	for _, round := range rounds {
		nodes := crashes[round]
		if round < 1 {
			if len(nodes) > 0 {
				return fmt.Errorf("sim: CrashAtRound round %d invalid for node %d (rounds are 1-based)", round, nodes[0])
			}
			return fmt.Errorf("sim: CrashAtRound round %d invalid (rounds are 1-based)", round)
		}
		for _, v := range nodes {
			if v < 0 || v >= n {
				return fmt.Errorf("sim: CrashAtRound[%d] lists node %d outside [0, %d)", round, v, n)
			}
			if prev, dup := crashRound[v]; dup {
				if prev == round {
					return fmt.Errorf("sim: node %d listed twice in CrashAtRound[%d]", v, round)
				}
				return fmt.Errorf("sim: node %d scheduled to crash twice (rounds %d and %d)", v, min(prev, round), max(prev, round))
			}
			crashRound[v] = round
		}
	}
	return nil
}
