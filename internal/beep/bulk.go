package beep

import (
	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

// NetworkInfo is the static information available to a bulk automaton at
// start-up: the whole-network counterpart of NodeInfo. Degrees is indexed
// by node id and must not be modified.
type NetworkInfo struct {
	// N is the number of nodes in the network.
	N int
	// Degrees holds each node's degree.
	Degrees []int
	// MaxDegree is the maximum degree of the network.
	MaxDegree int
}

// BulkAutomaton is the columnar counterpart of Automaton: one object
// holding the algorithm state of every node as packed arrays, so the
// simulator's round loop can run as a handful of array sweeps instead of
// n interface calls. A bulk automaton must be observationally identical
// to n per-node automata: for any node v it draws from streams[v] exactly
// the values the per-node Beep would draw, in the same per-stream order,
// and applies exactly the per-node Observe update. The engine equivalence
// tests enforce this bit-for-bit.
type BulkAutomaton interface {
	// BeepAll decides this step's beeps for every node in active,
	// visiting nodes in increasing id order and drawing node v's
	// randomness from streams[v]. It sets out's bit for each beeper.
	// out is zeroed by the caller and has active's capacity; nodes
	// outside active must not be touched and must draw nothing.
	BeepAll(active graph.Bitset, streams []*rng.Source, out graph.Bitset)
	// ObserveAll delivers the step's outcome to every node in observed:
	// node v beeped iff beeped contains v and heard a neighbour iff
	// heard contains v. Nodes outside observed must not be updated.
	// (The engine owns the join rule, so an observed node never has a
	// joining neighbour — the NeighborJoined field of the per-node
	// Outcome is always false here.)
	ObserveAll(observed, beeped, heard graph.Bitset)
}

// BulkRanger is optionally implemented by bulk automata whose draw and
// observe sweeps can be restricted to a word range of the node-id
// space: BeepRange and ObserveRange are BeepAll and ObserveAll limited
// to the nodes packed in mask words [loWord, hiWord). The simulator's
// round loop uses it to shard the eligible-draw and observe phases
// across cores: per-node state and per-node rng streams make every
// node's draw independent of every other node's, so disjoint word
// ranges processed concurrently produce bit-identical results to one
// serial sweep — the same argument that makes destination-sharded
// propagation deterministic.
//
// The contract mirrors BulkAutomaton's: within its range a call visits
// nodes in increasing id order, draws node v's randomness only from
// streams[v], touches only node v's packed state, and writes only the
// out/observed words inside [loWord, hiWord). Nodes outside the range
// must not be read, drawn for, or updated. A kernel whose per-node
// updates share mutable state across nodes cannot satisfy this and
// must not implement the interface; the round loop then falls back to
// the serial BeepAll/ObserveAll path.
type BulkRanger interface {
	// BeepRange is BeepAll restricted to the nodes in active's words
	// [loWord, hiWord).
	BeepRange(active graph.Bitset, streams []*rng.Source, out graph.Bitset, loWord, hiWord int)
	// ObserveRange is ObserveAll restricted to the nodes in observed's
	// words [loWord, hiWord).
	ObserveRange(observed, beeped, heard graph.Bitset, loWord, hiWord int)
}

// BulkProbabilityReporter is optionally implemented by bulk automata that
// expose their current beep probabilities; the tracer uses it to populate
// Snapshot.Probabilities exactly like the per-node ProbabilityReporter.
type BulkProbabilityReporter interface {
	// BeepProbabilities fills dst[v] with the probability that node v's
	// next BeepAll draw returns true. dst has one entry per node.
	BeepProbabilities(dst []float64)
}

// BulkResetter is optionally implemented by bulk automata whose nodes
// can be returned to their freshly-constructed state. The fault layer's
// transient-crash schedules with reset semantics require it: a reset
// recovery rebuilds the per-node automaton in the per-node adapter, and
// a kernel must mirror that by restoring the node's packed state to
// exactly what the factory would have initialised — so a reset node
// behaves bit-identically with or without the kernel from its first
// post-recovery draw.
type BulkResetter interface {
	// ResetNodes restores each listed node's state to its initial
	// value, as if the bulk factory had just constructed it. Other
	// nodes must be untouched; no randomness may be drawn.
	ResetNodes(nodes []int)
}

// BulkFactory builds the bulk automaton covering all of a network's
// nodes. A nil BulkFactory means the algorithm has no columnar kernel
// and engines must fall back to per-node automata.
type BulkFactory func(net NetworkInfo) BulkAutomaton
