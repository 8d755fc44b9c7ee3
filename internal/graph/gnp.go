package graph

import (
	"math"
	"math/bits"
	"slices"

	"beepmis/internal/rng"
)

// gnpPlanesFrom is the edge probability from which GNP decides pairs 64
// at a time by bit planes instead of skipping geometric gaps between
// edges (BenchmarkGNPRegimes measures both sides). It decides which
// draws make which graph, so moving it changes every seeded G(n,p)
// between its old and new value.
const gnpPlanesFrom = 0.1

// GNP returns an Erdős–Rényi random graph G(n, p): each of the n(n-1)/2
// possible edges is present independently with probability p. This is the
// workload of Figures 3 and 5 of the paper (with p = 1/2).
//
// A p ≤ 0 or NaN gives n isolated vertices and a p ≥ 1 gives K_n; neither
// draws from src. A negative n gives the graph with no vertices.
//
// The graph is built in fresh storage. Scratch.GNP builds the identical
// graph from the identical draws into storage reused across builds.
func GNP(n int, p float64, src *rng.Source) *Graph {
	var s Scratch
	return s.gnp(n, p, src)
}

// Scratch is reusable storage for a sequence of G(n, p) builds, such as
// the per-trial instances of one scenario unit. It holds the half-row
// buffer the sampler writes, the graph's row offsets and neighbour
// array, and the words of the adjacency matrix, so a build into a warm
// Scratch allocates only the Graph header.
//
// A graph built by s.GNP — with its Matrix() — is valid until s's next
// build, which overwrites the storage in place. Until then it may be
// read concurrently like any Graph; only one goroutine may build with s
// at a time. The zero value is ready to use.
type Scratch struct {
	hoff  []int64 // half-row offsets: row u's half is half[hoff[u]:hoff[u+1]]
	half  []int32
	off   []int64 // row offsets
	cols  []int32 // neighbour ids
	words []uint64
}

// GNP samples G(n, p) exactly as the package-level GNP does, drawing the
// same values from src, but into s's storage; see Scratch for how long
// the result stays valid. Its Matrix() is built, on first call, into s.
func (s *Scratch) GNP(n int, p float64, src *rng.Source) *Graph {
	g := s.gnp(n, p, src)
	g.scratch = s
	return g
}

// gnp samples G(n, p) into s and returns the graph over s.off and
// s.cols. Each sampling regime emits one half of every row, rows in
// order and each half ascending (halfRows); mirror then writes the full
// rows already sorted, so nothing is sorted or deduplicated.
func (s *Scratch) gnp(n int, p float64, src *rng.Source) *Graph {
	n = max(n, 0)
	s.halfRows(n, p, src)
	s.mirror(n)
	return &Graph{n: n, offsets: s.off, cols: s.cols}
}

// halfRows fills s.half and s.hoff with one half of every row of
// G(n, p). The draws, in their order, define the graph:
//
//   - p < gnpPlanesFrom: Batagelj–Brandes geometric skipping walks the
//     pairs (u, v), v < u, in row-major order and emits row u's lower
//     neighbours v ascending (skipRows).
//   - otherwise: one rng.BernoulliWord per 64 pairs (u, v), v > u, in
//     row-major order, each row starting a new word, emits row u's
//     upper neighbours ascending (planeRows). p ≥ 1 keeps every pair
//     and draws nothing.
func (s *Scratch) halfRows(n int, p float64, src *rng.Source) {
	s.hoff = resize(s.hoff, n+1)
	half := s.half[:0]
	if n < 2 || !(p > 0) {
		clear(s.hoff)
		s.half = half
		return
	}
	// Room for the expected edge count plus four standard deviations
	// and a row, so a build almost never regrows the buffer.
	q := min(p, 1)
	mean := float64(q * float64(n) * float64(n-1) / 2)
	half = slices.Grow(half, int(mean+float64(4*math.Sqrt(mean)))+n)
	if p < gnpPlanesFrom {
		s.half = skipRows(half, s.hoff, n, p, src)
	} else {
		s.half = planeRows(half, s.hoff, n, p, src)
	}
}

// skipRows appends the lower half rows of G(n, p) for 0 < p < 1 to half
// and records their offsets in hoff. Each gap between consecutive edges
// in the row-major walk is geometric: ⌊E/λ⌋ pairs for an exponential E
// and λ = −ln(1−p), so P(gap ≥ k) = (1−p)^k. A gap outside [0, n²) is
// set to n², past the last pair, before its int conversion, whose
// result Go leaves to the implementation for NaN and ±Inf: a p too
// small for 1 − p to differ from 1 gives λ = 0, every gap is infinite
// or NaN, and the graph has no edge.
func skipRows(half []int32, hoff []int64, n int, p float64, src *rng.Source) []int32 {
	lambda := -rng.Log(1 - p)
	end := float64(n) * float64(n)
	hoff[0], hoff[1] = 0, 0
	u, v := 1, -1
	for u < n {
		gap := src.ExpFloat64() / lambda
		if !(gap >= 0 && gap < end) {
			gap = end
		}
		v += 1 + int(gap)
		for v >= u && u < n {
			v -= u
			u++
			hoff[u] = int64(len(half)) // row u-1 is complete
		}
		if u < n {
			half = append(half, int32(v))
		}
	}
	return half
}

// planeRows appends the upper half rows of G(n, p) for p ≥ gnpPlanesFrom
// to half and records their offsets in hoff. Row u's candidates u+1, …,
// n−1 are decided 64 to a word by src.BernoulliWord, the last word
// masked to the row's end, and each word's set bits are written in
// ascending order.
func planeRows(half []int32, hoff []int64, n int, p float64, src *rng.Source) []int32 {
	for u := 0; u < n; u++ {
		hoff[u] = int64(len(half))
		width := n - 1 - u
		half = slices.Grow(half, width)
		row := half[len(half) : len(half)+width]
		k := 0
		for first := 0; first < width; first += 64 {
			lanes := ^uint64(0)
			if rest := width - first; rest < 64 {
				lanes = 1<<rest - 1
			}
			base := int32(u + 1 + first)
			for word := src.BernoulliWord(p, lanes); word != 0; word &= word - 1 {
				row[k] = base + int32(bits.TrailingZeros64(word))
				k++
			}
		}
		half = half[:len(half)+k]
	}
	hoff[n] = int64(len(half))
	return half
}

// mirror completes the half rows into full rows in s.off and s.cols.
// Row x holds its own half, which lies on one side of x, plus every u
// whose half holds x, which lies on the other side. Walking the half
// rows in row order and appending both kinds through per-row cursors
// therefore fills every row in ascending order: entries below x
// all arrive before entries above it, and each kind arrives ascending.
func (s *Scratch) mirror(n int) {
	hoff, half := s.hoff, s.half
	off := resize(s.off, n+1)
	clear(off)
	for u := 0; u < n; u++ {
		row := half[hoff[u]:hoff[u+1]]
		off[u+1] += int64(len(row))
		for _, v := range row {
			off[v+1]++
		}
	}
	for u := 1; u <= n; u++ {
		off[u] += off[u-1]
	}
	// off[u] is now row u's start; use it as row u's write cursor.
	cols := resize(s.cols, 2*len(half))
	for u := 0; u < n; u++ {
		for _, v := range half[hoff[u]:hoff[u+1]] {
			cols[off[u]] = v
			off[u]++
			cols[off[v]] = int32(u)
			off[v]++
		}
	}
	// Each cursor stopped at its row's end, which is the next row's start.
	copy(off[1:], off[:n])
	off[0] = 0
	s.off, s.cols = off, cols
}

// matrixRows returns zeroed storage for the rows of an n-vertex
// AdjacencyMatrix, reusing s's words.
func (s *Scratch) matrixRows(n int) []uint64 {
	s.words = resize(s.words, n*bitsetWords(n))
	clear(s.words)
	return s.words
}

// resize returns b with length n, reusing its array when it is large
// enough. A first allocation is exact, so a one-off build carries no
// slack; a buffer that has to grow gets 1/8 headroom, so the
// trial-to-trial jitter of a G(n,p) edge count does not reallocate it on
// every build.
func resize[T any](b []T, n int) []T {
	switch {
	case cap(b) >= n:
		return b[:n]
	case b == nil:
		return make([]T, n)
	default:
		return make([]T, n, n+n/8)
	}
}
