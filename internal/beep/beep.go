// Package beep defines the synchronous beeping communication model that
// the paper's algorithms run in, following Afek et al. (DISC'11) and
// Scott, Jeavons & Xu (PODC'13).
//
// Time is divided into discrete steps. In each step every active node may
// emit a "beep" — a one-bit, anonymous broadcast heard by all of its
// neighbours. A step has two exchanges (Table 1 of the paper):
//
//  1. Each active node beeps with its current probability. Every node
//     then learns whether at least one neighbour beeped (it cannot tell
//     which, or how many).
//  2. A node that beeped and heard silence joins the MIS and announces it;
//     nodes hearing such an announcement become inactive as dominated
//     neighbours.
//
// The engine (internal/sim or internal/transport) owns the join rule —
// "beeped and heard no beep ⇒ join" — which is common to the whole
// algorithm class. An Automaton only chooses when to beep and updates its
// internal state from the step's outcome. This keeps every schedule
// (local feedback, global sweep, fixed) expressible as a tiny automaton,
// exactly as simple as the biological analogue the paper describes.
package beep

import (
	"fmt"

	"beepmis/internal/rng"
)

// State is the lifecycle state of a node, mirroring Figure 2 of the
// paper.
type State uint8

const (
	// StateActive means the node is still competing.
	StateActive State = iota + 1
	// StateInMIS means the node joined the independent set (terminal).
	StateInMIS
	// StateDominated means a neighbour joined the MIS (terminal).
	StateDominated
	// StateCrashed means the node was killed by fault injection
	// (terminal; it neither beeps nor blocks its neighbours).
	StateCrashed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateInMIS:
		return "in-mis"
	case StateDominated:
		return "dominated"
	case StateCrashed:
		return "crashed"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s != StateActive }

// Outcome is everything a node observes about one time step.
type Outcome struct {
	// Beeped reports whether this node itself beeped in the first
	// exchange.
	Beeped bool
	// Heard reports whether at least one neighbour beeped in the first
	// exchange (after any fault injection).
	Heard bool
	// NeighborJoined reports whether at least one neighbour announced
	// joining the MIS in the second exchange.
	NeighborJoined bool
}

// Automaton is a node's algorithm: the probability schedule of the
// beeping MIS process. Implementations must be deterministic functions of
// their construction parameters, the provided randomness, and the
// sequence of Outcomes — the simulator and the message-passing protocol
// rely on this to produce identical executions from identical seeds.
//
// The engine calls Beep exactly once per time step while the node is
// active, then Observe exactly once with that step's outcome (unless the
// node reached a terminal state during the step).
type Automaton interface {
	// Beep decides whether the node beeps this step, drawing any needed
	// randomness from r.
	Beep(r *rng.Source) bool
	// Observe delivers the step's outcome so the automaton can adapt
	// (e.g. the paper's halve/double feedback rule).
	Observe(o Outcome)
}

// ProbabilityReporter is optionally implemented by automata that expose
// their current beep probability; the tracer and tests use it.
type ProbabilityReporter interface {
	// BeepProbability returns the probability with which the next Beep
	// call returns true.
	BeepProbability() float64
}

// NodeInfo is the static information available to a node at start-up.
// The paper's feedback algorithm needs none of it beyond the fields being
// available is deliberate: baselines such as the original Afek et al.
// algorithm require global knowledge (N and MaxDegree), and providing it
// through the same constructor keeps the comparison honest about what
// each algorithm assumes.
type NodeInfo struct {
	// ID is the node's index in [0, N).
	ID int
	// N is the number of nodes in the network.
	N int
	// MaxDegree is the maximum degree of the network.
	MaxDegree int
}

// Factory builds the automaton for one node. It must be safe to call
// concurrently for distinct nodes.
type Factory func(info NodeInfo) Automaton
