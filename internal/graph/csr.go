package graph

import (
	"math/bits"
	"sort"
)

// CSRBytes returns the memory an n-vertex, m-edge Graph's rows occupy,
// without building it: 8·(n+1) bytes of offsets and 4·2m bytes of
// neighbours, against the adjacency matrix's O(n²/8) (MatrixBytes) —
// which is what lets the sparse engine run million-node graphs that a
// packed matrix could never hold. The engine auto-selection heuristic
// uses both to pick a representation that fits the memory budget.
func CSRBytes(n, m int) int64 {
	return int64(n+1)*8 + int64(m)*2*4
}

// NeighborsIn returns how many of vertex v's neighbours are in set, by
// one walk of v's row.
//
//misvet:noalloc
func (g *Graph) NeighborsIn(v int, set Bitset) int {
	k := 0
	for _, t := range g.Neighbors(v) {
		if set[t>>6]&(1<<(uint(t)&63)) != 0 {
			k++
		}
	}
	return k
}

// orRowsVertexRangeInto sets dst's words [loWord, hiWord) to the union
// of the emitters' adjacency rows restricted to destination vertices
// [loWord·64, hiWord·64). Rows are sorted, so each emitter contributes
// the binary-searched sub-slice of its row that lands in the range —
// the per-emitter cost is O(log deg + hits), not O(deg).
//
// Saturation early-exit: once the entries written since the last check
// could have covered every bit of the range, the range is tested for
// saturation (all representable bits set) and the walk stops if so —
// further ORs cannot change a saturated union, so the result is exactly
// the full union either way. Gating the test on written volume (rather
// than a fixed row cadence, which the matrix walk uses) keeps its cost
// amortized O(1) per written entry: CSR rows are short on exactly the
// graphs this representation exists for, and an every-k-rows scan of
// the whole range would cost more than the writes it tries to save.
//
//misvet:noalloc
func (g *Graph) orRowsVertexRangeInto(dst, emitters Bitset, loWord, hiWord int) {
	for i := loWord; i < hiWord; i++ {
		dst[i] = 0
	}
	capacity := (hiWord - loWord) << 6
	written := 0
	if loWord == 0 && capacity >= g.n {
		// Full-range (serial) fast path: every row entry lands in range,
		// so the inner loop needs no boundary comparisons.
		for wi, w := range emitters {
			base := wi << 6
			for w != 0 {
				v := base + bits.TrailingZeros64(w)
				w &= w - 1
				row := g.Neighbors(v)
				for _, t := range row {
					dst[t>>6] |= 1 << (uint(t) & 63)
				}
				written += len(row)
				if written >= capacity {
					if rangeSaturated(dst, g.n, loWord, hiWord) {
						return
					}
					written = 0
				}
			}
		}
		return
	}
	loVert := int32(loWord << 6)
	hiVert := int64(hiWord) << 6 // may exceed n; rows never do
	for wi, w := range emitters {
		base := wi << 6
		for w != 0 {
			v := base + bits.TrailingZeros64(w)
			w &= w - 1
			row := g.Neighbors(v)
			start := 0
			if loVert > 0 {
				//misvet:allow(noalloc) the predicate closure does not escape sort.Search, so it stays on the stack
				start = sort.Search(len(row), func(i int) bool { return row[i] >= loVert })
			}
			i := start
			for ; i < len(row) && int64(row[i]) < hiVert; i++ {
				t := row[i]
				dst[t>>6] |= 1 << (uint(t) & 63)
			}
			written += i - start
			if written >= capacity {
				if rangeSaturated(dst, g.n, loWord, hiWord) {
					return
				}
				written = 0
			}
		}
	}
}

// PullRangeInto computes the same exchange as orRowsVertexRangeInto in
// the opposite direction: instead of scattering every emitter's row, it
// probes each *listener* in targets ∩ [loWord·64, hiWord·64) for an
// emitting neighbour, stopping at the first hit. For crowded exchanges
// — a constant fraction of each neighbourhood emitting, as in the
// opening rounds of every beeping algorithm — the expected probes per
// listener are O(1), so the pull direction costs O(listeners) where the
// push direction costs O(Σ deg(emitters)). dst words in range are fully
// owned (zeroed, then set only for hit targets), so range-sharded pull
// workers stay disjoint and deterministic exactly like push workers.
//
// dst bits outside targets are left unset; callers that read heard-bits
// only under a targets mask (the engine's round loop reads them only at
// eligible nodes) observe identical results from either direction.
//
//misvet:noalloc
func (g *Graph) PullRangeInto(dst, targets, emitters Bitset, loWord, hiWord int) {
	for i := loWord; i < hiWord; i++ {
		dst[i] = 0
	}
	hi := min(hiWord, len(targets))
	for wi := loWord; wi < hi; wi++ {
		w := targets[wi]
		base := wi << 6
		var hits uint64
		for w != 0 {
			b := uint(bits.TrailingZeros64(w))
			w &= w - 1
			row := g.Neighbors(base + int(b))
			for _, t := range row {
				if emitters[t>>6]&(1<<(uint(t)&63)) != 0 {
					hits |= 1 << b
					break
				}
			}
		}
		dst[wi] = hits
	}
}

// rangeSaturated reports whether dst's words [lo, hi) have every bit
// that can name a vertex of an n-vertex graph set (the last word of a
// non-multiple-of-64 capacity is only partially populated, so its
// comparison mask is the tail mask).
func rangeSaturated(dst Bitset, n, lo, hi int) bool {
	words := bitsetWords(n)
	tail := uint(n & 63)
	for i := lo; i < hi; i++ {
		want := ^uint64(0)
		if i == words-1 && tail != 0 {
			want = (uint64(1) << tail) - 1
		}
		if dst[i] != want {
			return false
		}
	}
	return true
}

// propagateMinDegreeSum is the emitter-degree workload below which
// Graph.PropagateInto stays on one goroutine: fan-out costs a few
// microseconds per worker plus a per-emitter binary search per shard,
// which only pays once each worker has real scatter work to do.
const propagateMinDegreeSum = 1 << 14

// PropagateInto sets dst to the union of the adjacency rows of every
// vertex in emitters — one beeping exchange: after the call, dst holds
// exactly the vertices with at least one emitting neighbour. The
// destination word range is partitioned into up to `shards` contiguous
// chunks processed by independent goroutines. Each worker owns a
// disjoint destination word range and OR-ing set bits is commutative
// and associative, so dst is bit-identical for every shard count
// (including the inline shards <= 1 path); sharding changes only the
// wall clock. Small workloads run inline regardless of shards.
func (g *Graph) PropagateInto(dst, emitters Bitset, shards int) {
	plan := g.planPush(emitters, shards)
	runExchange(g, plan, dst, nil, emitters, shards, bitsetWords(g.n))
}

// planPush is the push-only half of PlanExchange: serial when the
// emitter degree sum is below the fan-out threshold. The degree sum is
// only worth computing when fan-out is even possible.
//
//misvet:noalloc
func (g *Graph) planPush(emitters Bitset, shards int) ExchangePlan {
	serial := shards <= 1
	if !serial {
		sum := 0
		for wi, w := range emitters {
			base := wi << 6
			for w != 0 {
				sum += g.Degree(base + bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
		serial = sum < propagateMinDegreeSum
	}
	return ExchangePlan{Serial: serial}
}

// PlanExchange decides how one exchange should run: pushing the
// emitters' rows (cost Σ deg(emitters)) or pulling each target's first
// emitting neighbour (cost |targets| · expected probes), and whether
// the chosen direction's workload justifies goroutine fan-out. The
// choice depends only on deterministic mask counts, so dst restricted
// to targets is bit-identical for every shard count and either
// direction. Pull probes pay a bitset read each and touch every
// target's row, so the plan demands a clear margin before abandoning
// push; measured on G(10⁶, 10/n) the pull direction fires exactly in
// the crowded opening exchange (half the graph emitting), where it
// halves the exchange cost, and leaves the sparse-frontier tail to
// push.
//
//misvet:noalloc
func (g *Graph) PlanExchange(targets, emitters Bitset, shards int) ExchangePlan {
	e := emitters.Count()
	if e > 0 && len(g.cols) > 0 {
		t := targets.Count()
		avgDeg := float64(len(g.cols)) / float64(g.n)
		probes := float64(g.n) / float64(e) // expected probes to hit an emitter
		if probes > avgDeg {
			probes = avgDeg
		}
		pullCost := float64(t) * probes
		pushCost := float64(e) * avgDeg
		if pullCost < pushCost*0.75 {
			return ExchangePlan{Pull: true, Serial: shards <= 1 || pullCost < propagateMinDegreeSum}
		}
	}
	return g.planPush(emitters, shards)
}

// ExchangeRange executes a planned exchange restricted to destination
// words [loWord, hiWord), in the plan's direction. Workers own
// disjoint ranges, so any partition of the full range produces the
// same dst (at the bits in targets, for pull plans) as one serial
// pass.
//
//misvet:noalloc
func (g *Graph) ExchangeRange(p ExchangePlan, dst, targets, emitters Bitset, loWord, hiWord int) {
	if p.Pull {
		g.PullRangeInto(dst, targets, emitters, loWord, hiWord)
		return
	}
	g.orRowsVertexRangeInto(dst, emitters, loWord, hiWord)
}

// PropagateToTargets is the direction-optimizing exchange: it fills dst
// like PropagateInto, but is only required to be correct at the bits in
// targets. It plans with PlanExchange and fans out on ad-hoc
// goroutines; callers with a persistent worker pool (the simulator's
// round loop) use PlanExchange + ExchangeRange directly and skip the
// per-exchange spawns.
func (g *Graph) PropagateToTargets(dst, targets, emitters Bitset, shards int) {
	plan := g.PlanExchange(targets, emitters, shards)
	runExchange(g, plan, dst, targets, emitters, shards, bitsetWords(g.n))
}

// CSR returns g itself.
//
// Deprecated: Graph is the compressed-sparse-row form; use g directly.
func (g *Graph) CSR() *Graph { return g }

// FromCSR returns g itself.
//
// Deprecated: Graph is the compressed-sparse-row form; use g directly.
func FromCSR(g *Graph) *Graph { return g }
