package beep

import (
	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

// NetworkInfo is the static information available to a bulk automaton at
// start-up: the whole-network counterpart of NodeInfo, without the
// per-node fields (a kernel that needed a node's degree would read it
// from the graph, not from a per-run copy).
type NetworkInfo struct {
	// N is the number of nodes in the network.
	N int
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
//
// Both methods work on the nodes packed in mask words [loWord, hiWord);
// the round loop calls them over [0, words) on its serial path and over
// its shard pool's word partition when it fans out. Per-node state and
// per-node rng streams make every node's draw independent of every other
// node's, so disjoint word ranges processed concurrently give results
// bit-identical to one serial sweep — the same argument that makes
// range-sharded propagation deterministic. Within its range a call
// visits nodes in increasing id order, draws node v's randomness only
// from streams[v], touches only node v's packed state, and writes only
// the out words inside [loWord, hiWord). Nodes outside the range must not
// be read, drawn for, or updated.
type BulkAutomaton interface {
	// BeepRange decides this step's beeps for every node in active's
	// words [loWord, hiWord), drawing node v's randomness from
	// streams[v] — the run's contiguous per-node stream store. It sets
	// out's bit for each beeper. out's words in range are zeroed by the
	// caller; nodes outside active must not be touched and must draw
	// nothing.
	BeepRange(active graph.Bitset, streams []rng.Source, out graph.Bitset, loWord, hiWord int)
	// ObserveRange delivers the step's outcome to every node in
	// observed's words [loWord, hiWord): node v beeped iff beeped
	// contains v and heard a neighbour iff heard contains v. Nodes
	// outside observed must not be updated. (The engine owns the join
	// rule, so an observed node never has a joining neighbour — the
	// NeighborJoined field of the per-node Outcome is always false
	// here.)
	ObserveRange(observed, beeped, heard graph.Bitset, loWord, hiWord int)
	// BeepProbabilities fills dst[v] with the probability that node v's
	// next BeepRange draw returns true (NaN where the algorithm does not
	// report one). dst has one entry per node. The tracer uses it to
	// populate Snapshot.Probabilities exactly like the per-node
	// ProbabilityReporter.
	BeepProbabilities(dst []float64)
	// ResetNodes restores each listed node's state to its initial
	// value, as if the bulk factory had just constructed it. Other
	// nodes must be untouched; no randomness may be drawn. The fault
	// layer's reset recoveries call it: the per-node adapter rebuilds
	// the automaton, and a kernel restores the node's packed state to
	// exactly what the factory would have initialised — so a reset node
	// behaves bit-identically with or without the kernel from its first
	// post-recovery draw.
	ResetNodes(nodes []int)
}

// BulkFactory builds the bulk automaton covering all of a network's
// nodes. A nil BulkFactory means the algorithm has no columnar kernel
// and engines must fall back to per-node automata.
type BulkFactory func(net NetworkInfo) BulkAutomaton
