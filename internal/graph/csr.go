package graph

import "math/bits"

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

// scatterRowsInto overwrites all of dst with the union of the
// adjacency rows of the emitters packed in emitters' words [loWord,
// hiWord): one shard's part of an emitter-partitioned push, or, over
// the full word range, the whole push. Each emitter's row is walked
// once, start to end, so a range's cost is the degree sum of its own
// emitters plus one pass over dst; shards that split the emitter words
// each scatter into a full-width buffer of their own, and the caller
// ORs those buffers together (MergeRange).
//
// Saturation early-exit: once the entries written since the last check
// could have covered every bit of dst, dst is tested for saturation
// (all representable bits set) and the walk stops if so — further ORs
// cannot change a saturated union, so the result is exactly the full
// union either way. Gating the test on written volume (rather than a
// fixed row cadence, which the matrix walk uses) keeps its cost
// amortized O(1) per written entry: CSR rows are short on exactly the
// graphs this representation exists for, and an every-k-rows scan of
// the whole bitset would cost more than the writes it tries to save.
//
//misvet:noalloc
func (g *Graph) scatterRowsInto(dst, emitters Bitset, loWord, hiWord int) {
	clear(dst)
	capacity := len(dst) << 6
	written := 0
	for wi := loWord; wi < hiWord; wi++ {
		w := emitters[wi]
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
				if rangeSaturated(dst, g.n, 0, len(dst)) {
					return
				}
				written = 0
			}
		}
	}
}

// PullRangeInto computes the same exchange as scatterRowsInto in the
// opposite direction: instead of scattering every emitter's row, it
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

// exchangeMinWork is the estimated exchange workload (row entries a
// push writes, or probes a pull makes) below which an exchange stays on
// one goroutine: each pool phase costs a few microseconds of hand-off,
// which only pays once every shard has real work to do.
const exchangeMinWork = 1 << 14

// PlanExchange decides how one exchange should run: pushing the
// emitters' rows (cost Σ deg(emitters)) or pulling each target's first
// emitting neighbour (cost |targets| · expected probes), and whether
// the chosen direction's workload justifies goroutine fan-out. Both
// costs are estimated from mask counts and the average degree, so the
// plan is deterministic and costs two popcounts, not a walk of the
// emitters' degrees; either direction leaves dst restricted to targets
// bit-identical for every shard count. Pull probes pay a bitset read
// each and touch every target's row, so the plan demands a clear margin
// before abandoning push: pull must cost under 0.75 of push. With that
// margin the pull direction fires exactly in the crowded opening
// exchanges (half the graph emitting), where it halves the exchange
// cost, and leaves the sparse-frontier tail to push. Measured against
// the emitter-range push on G(10⁵, 10/n) and G(10⁶, 10/n), margins of
// 0.5 and 1.0 did no better.
//
// A fanned push scatters by emitter range (Scatter): on top of its row
// walks it zeroes and merges one full-width buffer per shard, so it
// stays serial until the estimated degree sum also covers those
// shards · ⌈n/64⌉ words — a small exchange on a huge graph never fans
// out.
//
//misvet:noalloc
func (g *Graph) PlanExchange(targets, emitters Bitset, shards int) ExchangePlan {
	e := emitters.Count()
	if e == 0 || len(g.cols) == 0 {
		return ExchangePlan{Scatter: true, Serial: true}
	}
	avgDeg := float64(len(g.cols)) / float64(g.n)
	pushCost := float64(e) * avgDeg
	probes := min(float64(g.n)/float64(e), avgDeg) // expected probes to hit an emitter
	pullCost := float64(targets.Count()) * probes
	if pullCost < pushCost*0.75 {
		return ExchangePlan{Pull: true, Serial: shards <= 1 || pullCost < exchangeMinWork}
	}
	mergeWords := float64(shards) * float64(bitsetWords(g.n))
	return ExchangePlan{Scatter: true, Serial: shards <= 1 || pushCost < max(exchangeMinWork, mergeWords)}
}

// ExchangeRange executes one shard's part of a planned exchange. A pull
// plan partitions destinations: it writes dst's words [loWord, hiWord)
// and no others (see PullRangeInto), so pull shards share one dst. A
// push plan (Scatter) partitions emitters: it overwrites all of dst
// with the rows of the emitters in emitters' words [loWord, hiWord)
// (see scatterRowsInto), so each push shard needs a full-width dst of
// its own, merged afterwards by MergeRange. Over the full word range
// either is the whole exchange.
//
//misvet:noalloc
func (g *Graph) ExchangeRange(p ExchangePlan, dst, targets, emitters Bitset, loWord, hiWord int) {
	if p.Pull {
		g.PullRangeInto(dst, targets, emitters, loWord, hiWord)
		return
	}
	g.scatterRowsInto(dst, emitters, loWord, hiWord)
}

// CSR returns g itself.
//
// Deprecated: Graph is the compressed-sparse-row form; use g directly.
func (g *Graph) CSR() *Graph { return g }

// FromCSR returns g itself.
//
// Deprecated: Graph is the compressed-sparse-row form; use g directly.
func FromCSR(g *Graph) *Graph { return g }
