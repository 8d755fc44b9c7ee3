package graph

import (
	"math/bits"
	"sort"
)

// CSR is the graph's adjacency relation in compressed-sparse-row form:
// one flat, sorted int32 column-index array plus per-row offsets. It
// occupies O(n + m) memory — 8·(n+1) bytes of offsets and 4·2m bytes of
// columns — against the adjacency matrix's O(n²/8), which is what lets
// the sparse simulation engine run million-node graphs that a packed
// matrix could never hold (n = 10⁶ would need ~125 GiB of matrix).
//
// Rows are sorted, so a destination-range worker can binary-search the
// slice of a row that lands in its range; that is the building block of
// sharded sparse propagation.
type CSR struct {
	n       int
	offsets []int64 // len n+1; row v is cols[offsets[v]:offsets[v+1]]
	cols    []int32 // len 2m, sorted within each row
}

// NewCSR flattens g's adjacency lists into compressed-sparse-row form.
// Cost: O(n + m) time and memory. For repeated simulations on the same
// graph prefer Graph.CSR, which builds once and caches.
func NewCSR(g *Graph) *CSR {
	n := g.N()
	c := &CSR{n: n, offsets: make([]int64, n+1)}
	total := 0
	for v := 0; v < n; v++ {
		total += g.Degree(v)
	}
	c.cols = make([]int32, 0, total)
	for v := 0; v < n; v++ {
		c.cols = append(c.cols, g.Neighbors(v)...)
		c.offsets[v+1] = int64(len(c.cols))
	}
	return c
}

// CSRBytes returns the memory a CSR for an n-vertex, m-edge graph would
// occupy, without building it. The engine auto-selection heuristic uses
// this (alongside MatrixBytes) to pick a representation that fits the
// memory budget.
func CSRBytes(n, m int) int64 {
	return int64(n+1)*8 + int64(m)*2*4
}

// N returns the number of vertices.
func (c *CSR) N() int { return c.n }

// M returns the number of edges.
func (c *CSR) M() int { return len(c.cols) / 2 }

// Row returns vertex v's sorted neighbour list sharing the CSR's
// storage; it must not be modified.
func (c *CSR) Row(v int) []int32 {
	return c.cols[c.offsets[v]:c.offsets[v+1]]
}

// Degree returns the degree of vertex v.
func (c *CSR) Degree(v int) int {
	return int(c.offsets[v+1] - c.offsets[v])
}

// NeighborsIn returns how many of vertex v's neighbours are in set, by
// one walk of v's row.
//
//misvet:noalloc
func (c *CSR) NeighborsIn(v int, set Bitset) int {
	k := 0
	for _, t := range c.Row(v) {
		if set[t>>6]&(1<<(uint(t)&63)) != 0 {
			k++
		}
	}
	return k
}

// HasEdge reports whether the edge {u, v} is present.
func (c *CSR) HasEdge(u, v int) bool {
	if u < 0 || u >= c.n || v < 0 || v >= c.n {
		return false
	}
	row := c.Row(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	return i < len(row) && row[i] == int32(v)
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
func (c *CSR) orRowsVertexRangeInto(dst, emitters Bitset, loWord, hiWord int) {
	for i := loWord; i < hiWord; i++ {
		dst[i] = 0
	}
	capacity := (hiWord - loWord) << 6
	written := 0
	if loWord == 0 && capacity >= c.n {
		// Full-range (serial) fast path: every row entry lands in range,
		// so the inner loop needs no boundary comparisons.
		for wi, w := range emitters {
			base := wi << 6
			for w != 0 {
				v := base + bits.TrailingZeros64(w)
				w &= w - 1
				row := c.Row(v)
				for _, t := range row {
					dst[t>>6] |= 1 << (uint(t) & 63)
				}
				written += len(row)
				if written >= capacity {
					if rangeSaturated(dst, c.n, loWord, hiWord) {
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
			row := c.Row(v)
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
				if rangeSaturated(dst, c.n, loWord, hiWord) {
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
func (c *CSR) PullRangeInto(dst, targets, emitters Bitset, loWord, hiWord int) {
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
			row := c.Row(base + int(b))
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
// CSR.PropagateInto stays on one goroutine: fan-out costs a few
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
func (c *CSR) PropagateInto(dst, emitters Bitset, shards int) {
	plan := c.planPush(emitters, shards)
	runExchange(c, plan, dst, nil, emitters, shards, bitsetWords(c.n))
}

// planPush is the push-only half of PlanExchange: serial when the
// emitter degree sum is below the fan-out threshold. The degree sum is
// only worth computing when fan-out is even possible.
//
//misvet:noalloc
func (c *CSR) planPush(emitters Bitset, shards int) ExchangePlan {
	serial := shards <= 1
	if !serial {
		sum := 0
		for wi, w := range emitters {
			base := wi << 6
			for w != 0 {
				sum += c.Degree(base + bits.TrailingZeros64(w))
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
func (c *CSR) PlanExchange(targets, emitters Bitset, shards int) ExchangePlan {
	e := emitters.Count()
	if e > 0 && len(c.cols) > 0 {
		t := targets.Count()
		avgDeg := float64(len(c.cols)) / float64(c.n)
		probes := float64(c.n) / float64(e) // expected probes to hit an emitter
		if probes > avgDeg {
			probes = avgDeg
		}
		pullCost := float64(t) * probes
		pushCost := float64(e) * avgDeg
		if pullCost < pushCost*0.75 {
			return ExchangePlan{Pull: true, Serial: shards <= 1 || pullCost < propagateMinDegreeSum}
		}
	}
	return c.planPush(emitters, shards)
}

// ExchangeRange executes a planned exchange restricted to destination
// words [loWord, hiWord), in the plan's direction. Workers own
// disjoint ranges, so any partition of the full range produces the
// same dst (at the bits in targets, for pull plans) as one serial
// pass.
//
//misvet:noalloc
func (c *CSR) ExchangeRange(p ExchangePlan, dst, targets, emitters Bitset, loWord, hiWord int) {
	if p.Pull {
		c.PullRangeInto(dst, targets, emitters, loWord, hiWord)
		return
	}
	c.orRowsVertexRangeInto(dst, emitters, loWord, hiWord)
}

// PropagateToTargets is the direction-optimizing exchange: it fills dst
// like PropagateInto, but is only required to be correct at the bits in
// targets. It plans with PlanExchange and fans out on ad-hoc
// goroutines; callers with a persistent worker pool (the simulator's
// round loop) use PlanExchange + ExchangeRange directly and skip the
// per-exchange spawns.
func (c *CSR) PropagateToTargets(dst, targets, emitters Bitset, shards int) {
	plan := c.PlanExchange(targets, emitters, shards)
	runExchange(c, plan, dst, targets, emitters, shards, bitsetWords(c.n))
}

// CSR returns g's compressed-sparse-row representation, building it on
// first use and caching it for the graph's lifetime. Safe for
// concurrent callers, like all Graph readers.
func (g *Graph) CSR() *CSR {
	g.csrOnce.Do(func() { g.csr = NewCSR(g) })
	return g.csr
}
