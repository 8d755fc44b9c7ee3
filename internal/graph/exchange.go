package graph

import "sync"

// ExchangePlan is the per-exchange decision both adjacency
// representations (the Graph's rows and its AdjacencyMatrix) make
// before delivering a beeping exchange: which direction to run it in
// (push the emitters' rows, or — rows only — pull each target's first
// emitting neighbour) and whether the
// workload is too small to pay goroutine fan-out. Planning is split
// from execution so a caller that owns a persistent worker pool (the
// simulator's round loop) can make the decision once per exchange and
// then drive ExchangeRange over its own word-range partition, instead
// of paying a goroutine spawn per exchange per round. The plan depends
// only on deterministic mask counts, so every caller computes the same
// plan for the same masks.
type ExchangePlan struct {
	// Pull runs the exchange in the pull direction: probe each target
	// for an emitting neighbour instead of scattering emitter rows.
	// Only the Graph's rows ever set it; dst bits outside targets are
	// then left unset (see Graph.PullRangeInto).
	Pull bool
	// Serial reports that the exchange is too small for fan-out to pay:
	// the caller should run ExchangeRange once over the full word range
	// on its own goroutine.
	Serial bool
}

// rangeExchanger delivers one exchange restricted to a destination
// word range; both adjacency representations implement it, and
// runExchange fans it out when the plan is not serial.
type rangeExchanger interface {
	ExchangeRange(p ExchangePlan, dst, targets, emitters Bitset, loWord, hiWord int)
}

// runExchange executes a planned exchange: inline over the full range
// when the plan is serial (or sharding is disabled), otherwise
// partitioned into up to `shards` contiguous destination word chunks
// on ad-hoc goroutines. Workers own disjoint destination ranges, so
// dst is bit-identical for every shard count.
func runExchange(x rangeExchanger, p ExchangePlan, dst, targets, emitters Bitset, shards, words int) {
	if shards > words {
		shards = words
	}
	if p.Serial || shards <= 1 {
		x.ExchangeRange(p, dst, targets, emitters, 0, words)
		return
	}
	chunk := (words + shards - 1) / shards
	var wg sync.WaitGroup
	for lo := 0; lo < words; lo += chunk {
		hi := min(lo+chunk, words)
		wg.Add(1)
		go func() {
			defer wg.Done()
			x.ExchangeRange(p, dst, targets, emitters, lo, hi)
		}()
	}
	wg.Wait()
}
