package graph

import (
	"math"
	"slices"

	"beepmis/internal/rng"
)

// gnpSkipBelow is the edge probability below which GNP samples by
// geometric skipping instead of testing every pair. It decides which
// draws make which graph, so moving it changes every seeded G(n,p).
const gnpSkipBelow = 0.1

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
// G(n, p), consuming src exactly as the Builder-based generator this
// replaced did:
//
//   - p < gnpSkipBelow: Batagelj–Brandes geometric skipping walks the
//     pairs (u, v), v < u, in row-major order and emits row u's lower
//     neighbours v ascending.
//   - otherwise: one Bernoulli(p) draw per pair (u, v), v > u, in
//     row-major order emits row u's upper neighbours ascending (p ≥ 1
//     keeps every pair and draws nothing).
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
	mean := q * float64(n) * float64(n-1) / 2
	half = slices.Grow(half, int(mean+4*math.Sqrt(mean))+n)

	if p < gnpSkipBelow {
		lq := math.Log(1 - p)
		s.hoff[0], s.hoff[1] = 0, 0
		u, v := 1, -1
		for u < n {
			r := src.Float64()
			v += 1 + int(math.Log(1-r)/lq)
			for v >= u && u < n {
				v -= u
				u++
				s.hoff[u] = int64(len(half)) // row u-1 is complete
			}
			// v < 0 only after the skip overflowed int (p below ~4e-18);
			// the replaced generator's range check dropped that edge too.
			if u < n && v >= 0 {
				half = append(half, int32(v))
			}
		}
		s.half = half
		return
	}

	all := p >= 1
	for u := 0; u < n; u++ {
		s.hoff[u] = int64(len(half))
		width := n - 1 - u
		half = slices.Grow(half, width)
		row := half[len(half) : len(half)+width]
		k := width
		if all {
			for i := range row {
				row[i] = int32(u + 1 + i)
			}
		} else {
			k = sampleRow(row, int32(u+1), p, src)
		}
		half = half[:len(half)+k]
	}
	s.hoff[n] = int64(len(half))
	s.half = half
}

// sampleRow draws one Bernoulli(p) per candidate first, first+1, …,
// first+len(row)-1, in order, packs the accepted ones at the front of
// row, and returns how many were accepted. It is branch-free: every
// candidate is written and the write index advances by the draw's
// outcome. At p = 1/2 a branch on the draw would mispredict on every
// other pair.
func sampleRow(row []int32, first int32, p float64, src *rng.Source) int {
	k := 0
	for i := range row {
		row[k] = first + int32(i)
		if src.Float64() < p {
			k++
		}
	}
	return k
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
