package sim

import (
	"math"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

// bulkPropagator delivers one exchange for the round loop: dst
// becomes the union of the adjacency rows of every vertex in emitters —
// required to be correct at least at the bits in targets, the only
// ones the round loop reads. PlanExchange decides the direction, how
// ExchangeRange's word ranges partition the work and whether fan-out
// pays; the loop then runs the plan's ranges on its persistent shard
// pool. Both adjacency representations satisfy it:
// *graph.AdjacencyMatrix (dense packed rows, the columnar engine)
// always pushes by destination range, and *graph.Graph itself (sorted
// compressed rows, the sparse engine) pulls by destination range or
// pushes by emitter range (a Scatter plan), each shard into a buffer of
// its own that the loop then merges. Both are bit-identical within
// targets for every shard count.
type bulkPropagator interface {
	PlanExchange(targets, emitters graph.Bitset, shards int) graph.ExchangePlan
	ExchangeRange(p graph.ExchangePlan, dst, targets, emitters graph.Bitset, loWord, hiWord int)
	// NeighborsIn counts v's neighbours in set — the emitter count k
	// the beep-loss draw needs, asked only while loss is on.
	NeighborsIn(v int, set graph.Bitset) int
}

var (
	_ bulkPropagator     = (*graph.AdjacencyMatrix)(nil)
	_ bulkPropagator     = (*graph.Graph)(nil)
	_ beep.BulkAutomaton = (*perNodeBulk)(nil)
)

// perNodeBulk adapts per-node automata to the beep.BulkAutomaton
// surface, so the round loop can run algorithms that have no columnar
// kernel, on either engine. It is observationally identical to driving
// each automaton directly: BeepRange visits active nodes in increasing
// id order drawing from each node's own stream, and ObserveRange
// delivers exactly the per-node Outcome (an observed node never has a
// joining neighbour — the engine owns the join rule).
type perNodeBulk struct {
	autos   []beep.Automaton
	factory beep.Factory
	net     beep.NetworkInfo
}

// perNodeBulkFactory wraps a per-node factory as a bulk factory,
// constructing each automaton with its node's NodeInfo.
func perNodeBulkFactory(factory beep.Factory) beep.BulkFactory {
	return func(net beep.NetworkInfo) beep.BulkAutomaton {
		b := &perNodeBulk{autos: make([]beep.Automaton, net.N), factory: factory, net: net}
		for v := range b.autos {
			b.autos[v] = b.build(v)
		}
		return b
	}
}

func (b *perNodeBulk) build(v int) beep.Automaton {
	return b.factory(beep.NodeInfo{ID: v, N: b.net.N, MaxDegree: b.net.MaxDegree})
}

// ResetNodes implements beep.BulkAutomaton by rebuilding each node's
// automaton, so a reset node restarts from the factory's initial state.
func (b *perNodeBulk) ResetNodes(nodes []int) {
	for _, v := range nodes {
		b.autos[v] = b.build(v)
	}
}

// BeepRange implements beep.BulkAutomaton. Factories hand every node its
// own automaton and every automaton draws only from its own stream, so
// disjoint node ranges touch disjoint state and the adapter satisfies
// the range contract for exactly the same reason the packed kernels
// do. (An automaton that shared mutable state across nodes would
// already violate the simulator's determinism contract.)
func (b *perNodeBulk) BeepRange(active graph.Bitset, streams []rng.Source, out graph.Bitset, loWord, hiWord int) {
	active.ForEachRange(loWord, hiWord, func(v int) {
		if b.autos[v].Beep(&streams[v]) {
			out.Set(v)
		}
	})
}

// ObserveRange implements beep.BulkAutomaton; see BeepRange.
func (b *perNodeBulk) ObserveRange(observed, beeped, heard graph.Bitset, loWord, hiWord int) {
	observed.ForEachRange(loWord, hiWord, func(v int) {
		b.autos[v].Observe(beep.Outcome{Beeped: beeped.Test(v), Heard: heard.Test(v)})
	})
}

// BeepProbabilities implements beep.BulkAutomaton by delegating to each
// automaton's optional per-node reporter (NaN when an automaton does
// not report).
func (b *perNodeBulk) BeepProbabilities(dst []float64) {
	for v, a := range b.autos {
		if pr, ok := a.(beep.ProbabilityReporter); ok {
			dst[v] = pr.BeepProbability()
		} else {
			dst[v] = math.NaN()
		}
	}
}
