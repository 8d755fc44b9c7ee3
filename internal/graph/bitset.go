package graph

import "math/bits"

// Bitset is a fixed-capacity set of small non-negative integers packed
// 64 per word, the substrate of the word-parallel simulation engine: one
// bitwise operation combines membership information for 64 vertices at
// once. The zero value is an empty set of capacity 0; use NewBitset for
// a set over [0, n).
type Bitset []uint64

// bitsetWords returns the number of 64-bit words needed for n bits.
func bitsetWords(n int) int { return (n + 63) / 64 }

// NewBitset returns an empty bitset with capacity for elements [0, n).
func NewBitset(n int) Bitset {
	if n < 0 {
		n = 0
	}
	return make(Bitset, bitsetWords(n))
}

// Set adds i to the set. i must be within the capacity.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes i from the set. i must be within the capacity.
func (b Bitset) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Test reports whether i is in the set. i must be within the capacity.
func (b Bitset) Test(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Zero empties the set in place.
func (b Bitset) Zero() {
	for i := range b {
		b[i] = 0
	}
}

// Fill sets exactly the elements [0, n) and clears the rest. n must be
// within the capacity. This is how the columnar engine initialises its
// all-nodes-active mask.
func (b Bitset) Fill(n int) {
	b.Zero()
	if n <= 0 {
		return
	}
	full := n >> 6
	for i := 0; i < full; i++ {
		b[i] = ^uint64(0)
	}
	if rem := uint(n & 63); rem != 0 {
		b[full] = (1 << rem) - 1
	}
}

// Count returns the number of elements in the set.
func (b Bitset) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether the set is non-empty.
func (b Bitset) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// Or adds every element of other to b. The sets must have equal capacity.
func (b Bitset) Or(other Bitset) {
	for i, w := range other {
		b[i] |= w
	}
}

// And removes every element of b not in other. The sets must have equal
// capacity.
func (b Bitset) And(other Bitset) {
	for i, w := range other {
		b[i] &= w
	}
}

// AndNot removes every element of other from b. The sets must have equal
// capacity.
func (b Bitset) AndNot(other Bitset) {
	for i, w := range other {
		b[i] &^= w
	}
}

// AndCount returns |b ∩ other| without materialising the intersection.
// The sets must have equal capacity.
func (b Bitset) AndCount(other Bitset) int {
	c := 0
	for i, w := range other {
		c += bits.OnesCount64(b[i] & w)
	}
	return c
}

// ForEach calls fn for every element of the set in increasing order. It
// walks words and extracts set bits with trailing-zero counts, so the
// cost is proportional to the capacity in words plus the population, not
// the capacity in bits.
func (b Bitset) ForEach(fn func(i int)) {
	b.ForEachRange(0, len(b), fn)
}

// ForEachRange calls fn for every element packed in words
// [loWord, hiWord), in increasing order — the range form of ForEach
// that node-range-sharded sweeps (the columnar engine's eligible-draw
// phase) iterate their own partition with. hiWord is clamped to the
// capacity.
func (b Bitset) ForEachRange(loWord, hiWord int, fn func(i int)) {
	hiWord = min(hiWord, len(b))
	for wi := loWord; wi < hiWord; wi++ {
		w := b[wi]
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// AdjacencyMatrix is the graph's adjacency relation as packed row
// bitsets: row v has bit w set iff {v, w} is an edge. It trades O(n²/8)
// bytes of memory for word-parallel neighbourhood operations — OR-ing a
// row into an accumulator informs 64 listeners per machine instruction,
// which is what makes the bitset simulation engine fast on dense graphs.
type AdjacencyMatrix struct {
	n     int
	words int      // words per row
	rows  []uint64 // n*words, row-major
}

// NewAdjacencyMatrix builds the packed adjacency representation of g
// from its rows. Cost: O(n²/64) words of memory, O(n²/64 + m) time.
// For repeated simulations on the same graph prefer Graph.Matrix, which
// builds once and caches.
func NewAdjacencyMatrix(g *Graph) *AdjacencyMatrix {
	n := g.N()
	return newAdjacencyMatrix(g, make([]uint64, n*bitsetWords(n)))
}

// newAdjacencyMatrix builds g's matrix into rows, which must be zeroed
// and hold exactly MatrixBytes(g.N())/8 words.
func newAdjacencyMatrix(g *Graph, rows []uint64) *AdjacencyMatrix {
	n := g.N()
	words := bitsetWords(n)
	m := &AdjacencyMatrix{n: n, words: words, rows: rows}
	for v := 0; v < n; v++ {
		row := m.rows[v*words : (v+1)*words]
		for _, w := range g.Neighbors(v) {
			row[w>>6] |= 1 << (uint(w) & 63)
		}
	}
	return m
}

// MatrixBytes returns the memory an AdjacencyMatrix for an n-vertex
// graph would occupy, without building it. The engine auto-selection
// heuristic uses this to refuse representations that would not fit.
func MatrixBytes(n int) int64 {
	return int64(n) * int64(bitsetWords(n)) * 8
}

// N returns the number of vertices.
func (m *AdjacencyMatrix) N() int { return m.n }

// Words returns the number of 64-bit words per row.
func (m *AdjacencyMatrix) Words() int { return m.words }

// Row returns vertex v's neighbourhood as a bitset sharing the matrix's
// storage; it must not be modified.
func (m *AdjacencyMatrix) Row(v int) Bitset {
	return Bitset(m.rows[v*m.words : (v+1)*m.words])
}

// NeighborsIn returns how many of vertex v's neighbours are in set: a
// popcount of v's row masked by set. set must have capacity n.
//
//misvet:noalloc
func (m *AdjacencyMatrix) NeighborsIn(v int, set Bitset) int {
	return m.Row(v).AndCount(set)
}

// OrRowInto ORs vertex v's neighbourhood row into dst, which must have
// capacity n: one call delivers v's beep to all its neighbours, 64 of
// them per word operation.
//
//misvet:noalloc
func (m *AdjacencyMatrix) OrRowInto(dst Bitset, v int) {
	row := m.rows[v*m.words : (v+1)*m.words]
	for i, w := range row {
		dst[i] |= w
	}
}

// orRowsRangeInto sets dst's words [lo, hi) to the union of the
// corresponding row words of every vertex in emitters. Every 64 rows it
// checks whether the range has saturated — every representable bit set —
// and stops early if so: further ORs cannot change a saturated union, so
// the result is exactly the full union either way. On dense graphs this
// turns the crowded early rounds (thousands of emitters whose
// neighbourhoods blanket the network within a few dozen rows) from
// O(emitters · words) into O(words).
//
//misvet:noalloc
func (m *AdjacencyMatrix) orRowsRangeInto(dst, emitters Bitset, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = 0
	}
	rows := 0
	for wi, w := range emitters {
		base := wi << 6
		for w != 0 {
			v := base + bits.TrailingZeros64(w)
			w &= w - 1
			row := m.rows[v*m.words+lo : v*m.words+hi]
			d := dst[lo:hi]
			for i, rw := range row {
				d[i] |= rw
			}
			rows++
			if rows&63 == 0 && rangeSaturated(dst, m.n, lo, hi) {
				return
			}
		}
	}
}

// propagateMinWords is the word-OR workload below which a matrix
// exchange stays on one goroutine: fan-out costs a few microseconds
// per worker, which only pays off once each worker has tens of
// thousands of word operations to chew through.
const propagateMinWords = 1 << 15

// PlanExchange decides how one exchange of emitters' rows should run:
// the dense representation always pushes (a packed row OR already
// informs 64 listeners per word operation, so pull has nothing to
// win), and goes serial when the word-OR volume is below the fan-out
// threshold. The targets mask is ignored — a pushed dst is correct
// everywhere, a superset of the targets contract.
//
//misvet:noalloc
func (m *AdjacencyMatrix) PlanExchange(_, emitters Bitset, shards int) ExchangePlan {
	return ExchangePlan{
		Serial: shards <= 1 || emitters.Count()*m.words < propagateMinWords,
	}
}

// ExchangeRange executes a planned exchange restricted to destination
// words [loWord, hiWord): dst's range becomes the union of the
// corresponding row words of every emitter. Workers own disjoint
// ranges, so any partition of the full range produces the same dst as
// one serial pass.
//
//misvet:noalloc
func (m *AdjacencyMatrix) ExchangeRange(_ ExchangePlan, dst, _, emitters Bitset, loWord, hiWord int) {
	m.orRowsRangeInto(dst, emitters, loWord, hiWord)
}

// HasEdge reports whether the edge {u, v} is present.
func (m *AdjacencyMatrix) HasEdge(u, v int) bool {
	if u < 0 || u >= m.n || v < 0 || v >= m.n {
		return false
	}
	return m.Row(u).Test(v)
}

// Matrix returns g's packed adjacency-matrix representation, building it
// on first use and caching it for the graph's lifetime. Safe for
// concurrent callers, like all Graph readers. A graph built into a
// Scratch builds its matrix into the scratch's storage.
func (g *Graph) Matrix() *AdjacencyMatrix {
	g.matOnce.Do(func() {
		if g.scratch != nil {
			g.mat = newAdjacencyMatrix(g, g.scratch.matrixRows(g.N()))
		} else {
			g.mat = NewAdjacencyMatrix(g)
		}
	})
	return g.mat
}
