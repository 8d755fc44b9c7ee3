package graph

// ExchangePlan is the per-exchange decision both adjacency
// representations (the Graph's rows and its AdjacencyMatrix) make
// before delivering a beeping exchange: which direction to run it in
// (push the emitters' rows, or — rows only — pull each target's first
// emitting neighbour), how its word ranges partition the work, and
// whether the workload is too small to pay goroutine fan-out. Planning
// is split from execution so a caller that owns a persistent worker
// pool (the simulator's round loop) can make the decision once per
// exchange and then drive ExchangeRange over its own word-range
// partition. The plan depends only on deterministic mask counts, so
// every caller computes the same plan for the same masks.
type ExchangePlan struct {
	// Pull runs the exchange in the pull direction: probe each target
	// for an emitting neighbour instead of scattering emitter rows.
	// Only the Graph's rows ever set it; dst bits outside targets are
	// then left unset (see Graph.PullRangeInto).
	Pull bool
	// Scatter reports that ExchangeRange's word range partitions the
	// emitters rather than the destination: each range's call
	// overwrites a full-width dst of its own, and the caller ORs those
	// buffers into the exchange's dst with MergeRange. Only the Graph's
	// push plans set it; pull plans and every matrix plan partition the
	// destination, so their ranges write disjoint words of one dst.
	Scatter bool
	// Serial reports that the exchange is too small for fan-out to pay:
	// the caller should run ExchangeRange once over the full word range
	// on its own goroutine.
	Serial bool
}

// MergeRange ORs words [loWord, hiWord) of every part into the same
// words of dst: the merge step of a Scatter exchange, run after every
// emitter range has filled its part. Destination ranges are disjoint,
// so merges of a partition of the word space may run concurrently.
//
//misvet:noalloc
func MergeRange(dst Bitset, parts []Bitset, loWord, hiWord int) {
	d := dst[loWord:hiWord]
	for _, p := range parts {
		for i, w := range p[loWord:hiWord] {
			d[i] |= w
		}
	}
}
