package graph

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// CSRBuilder constructs a Graph directly from an edge stream into its
// final flat rows: no per-vertex slices and no realloc churn. It is the
// one place rows are sorted and deduplicated: Builder.Build finishes
// through it (feeding both passes from its edge list on one goroutine),
// as do the web-scale generators (RMAT, configuration model) and the
// streamed file loaders, which are sized for 10⁷–10⁸ edges.
//
// Construction is a deterministic two-pass protocol:
//
//  1. Counting: the caller streams every edge once through Count, from
//     any number of goroutines — degrees accumulate by atomic adds
//     directly into the offsets array, so the pass needs no per-worker
//     counter copies.
//  2. FinishCounts turns the counts into row offsets by one serial
//     prefix sum and allocates the flat column array.
//  3. Placement: the caller streams the same edges again through Place,
//     again from any goroutines — each arc lands at an atomically
//     bumped per-row cursor. The placement order is
//     scheduling-dependent, but irrelevant: finalisation sorts each row.
//  4. Finish sorts and dedupes every row in place (self-loops were
//     dropped at insertion), compacts the column array over the holes
//     dedupe left, and rebuilds the offsets.
//
// The result is bit-identical for the same edge set, for ANY worker
// count and ANY insertion order — each row's final content is the
// sorted set of its neighbours, a pure function of the edge set. The
// two passes must stream exactly the same edges; generators replay
// their per-chunk rng streams, file loaders re-read the file. A
// mismatch is detected and reported by Finish, never silently
// mis-built.
//
// Peak memory: 8·(n+1) bytes of offsets + 4·n bytes of cursors +
// 4 bytes per inserted arc (two arcs per undirected edge) — at most
// ~1.5× CSRBytes(n, m) for every m ≥ 0, and asymptotically 1.0× as
// duplicates vanish. PeakBytes reports the exact figure.
type CSRBuilder struct {
	n       int
	phase   int32 // 0 counting, 1 placing, 2 finished
	offsets []int64
	cur     []int32 // per-row placement cursors (relative to row start)
	cols    []int32

	errMu sync.Mutex
	err   error
}

// NewCSRBuilder returns a builder for a graph on n vertices.
func NewCSRBuilder(n int) *CSRBuilder {
	if n < 0 {
		n = 0
	}
	return &CSRBuilder{n: n, offsets: make([]int64, n+1)}
}

// N returns the vertex count the builder was created with.
func (b *CSRBuilder) N() int { return b.n }

// setErr records the first construction error; later ones are dropped.
// Feeding errors are rare (generators emit in-range edges by
// construction, loaders validate before feeding), so the mutex is off
// the hot path.
func (b *CSRBuilder) setErr(err error) {
	b.errMu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.errMu.Unlock()
}

// Count registers the undirected edge {u, v} for the counting pass.
// Self-loops are dropped (consistently with Place); out-of-range
// endpoints record a sticky error returned by Finish. Safe for
// concurrent callers.
func (b *CSRBuilder) Count(u, v int32) {
	if u == v {
		return
	}
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		b.setErr(fmt.Errorf("graph: CSRBuilder edge {%d,%d} out of range for n=%d", u, v, b.n))
		return
	}
	atomic.AddInt64(&b.offsets[u+1], 1)
	atomic.AddInt64(&b.offsets[v+1], 1)
}

// FinishCounts closes the counting pass: one serial prefix sum turns
// the per-row counts into row offsets, and the flat column array is
// allocated at its exact final capacity. Must be called once, between
// the passes, with no concurrent Count calls.
func (b *CSRBuilder) FinishCounts() error {
	if b.phase != 0 {
		return fmt.Errorf("graph: CSRBuilder.FinishCounts called twice")
	}
	if b.err != nil {
		return b.err
	}
	var total int64
	for v := 1; v <= b.n; v++ {
		total += b.offsets[v]
		b.offsets[v] = total
	}
	b.cols = make([]int32, total)
	b.cur = make([]int32, b.n)
	b.phase = 1
	return nil
}

// Place inserts the undirected edge {u, v} in the placement pass, one
// arc into each endpoint's row. The edge stream must be exactly the
// counting pass's stream (in any order); a divergence is caught by
// Finish. Safe for concurrent callers.
func (b *CSRBuilder) Place(u, v int32) {
	if u == v {
		return
	}
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		b.setErr(fmt.Errorf("graph: CSRBuilder edge {%d,%d} out of range for n=%d", u, v, b.n))
		return
	}
	for _, arc := range [2][2]int32{{u, v}, {v, u}} {
		row := arc[0]
		slot := atomic.AddInt32(&b.cur[row], 1) - 1
		idx := b.offsets[row] + int64(slot)
		if idx >= b.offsets[row+1] {
			// More arcs placed into this row than were counted: the two
			// passes diverged. Refuse the write — it would land in the
			// next row's territory — and let Finish report it.
			b.setErr(fmt.Errorf("graph: CSRBuilder placement overflow at row %d: placement pass emitted more arcs than the counting pass", row))
			return
		}
		b.cols[idx] = arc[1]
	}
}

// placed returns the arcs the placement pass has put into row u so
// far. A pass that overflowed the row (an error Finish reports) is cut
// at the row's end.
func (b *CSRBuilder) placed(u int32) []int32 {
	lo := b.offsets[u]
	return b.cols[lo:min(lo+int64(b.cur[u]), b.offsets[u+1])]
}

// countPairs is Count for one goroutine over a list of endpoint pairs
// (edge i is {edges[2i], edges[2i+1]}) already known to be in range
// and loop-free, as Builder's are: plain adds instead of atomic ones,
// which cost several times more than the placement itself.
func (b *CSRBuilder) countPairs(edges []int32) {
	for _, v := range edges {
		b.offsets[v+1]++
	}
}

// placePairs is Place for countPairs' list, on the same terms.
func (b *CSRBuilder) placePairs(edges []int32) {
	for i := 0; i < len(edges); i += 2 {
		u, v := edges[i], edges[i+1]
		b.cols[b.offsets[u]+int64(b.cur[u])] = v
		b.cur[u]++
		b.cols[b.offsets[v]+int64(b.cur[v])] = u
		b.cur[v]++
	}
}

// PeakBytes returns the builder's peak heap footprint: offsets,
// cursors, and the column array at its inserted-arc capacity. It is
// exact arithmetic over the builder's own allocations (the figure the
// ≤1.5×CSRBytes construction-memory bound is asserted against), not a
// runtime measurement.
func (b *CSRBuilder) PeakBytes() int64 {
	return int64(b.n+1)*8 + int64(len(b.cur))*4 + int64(cap(b.cols))*4
}

// finalizeWorkers resolves a Finish worker bound: ≤0 means GOMAXPROCS.
func finalizeWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Finish closes the placement pass and finalises the Graph: every row is
// sorted and deduplicated in place (row ranges are partitioned across
// up to `workers` goroutines; ≤0 means GOMAXPROCS), the column array is
// compacted over dedupe's holes, and the offsets are rebuilt. The
// builder must not be used after Finish.
//
// The result is identical for every worker count: each row's final
// content depends only on the set of arcs placed into it.
func (b *CSRBuilder) Finish(workers int) (*Graph, error) {
	if b.phase != 1 {
		return nil, fmt.Errorf("graph: CSRBuilder.Finish before FinishCounts")
	}
	b.phase = 2
	if b.err != nil {
		return nil, b.err
	}
	// Both passes must have streamed the same edges: every row's placed
	// arc count must equal its counted degree. (Overflow was caught at
	// Place time; this catches underflow — a second pass that emitted
	// fewer arcs.)
	for v := 0; v < b.n; v++ {
		if counted := b.offsets[v+1] - b.offsets[v]; int64(b.cur[v]) != counted {
			return nil, fmt.Errorf("graph: CSRBuilder pass mismatch at row %d: counted %d arcs, placed %d", v, counted, b.cur[v])
		}
	}

	// Per-row finalisation: sort + dedupe in place. Rows are disjoint
	// slices of cols, so contiguous vertex ranges are independent; the
	// deduped length is parked in cur[v] for the compaction pass.
	w := finalizeWorkers(workers, b.n)
	finalizeRange := func(lo, hi int) {
		for v := lo; v < hi; v++ {
			row := b.cols[b.offsets[v]:b.offsets[v+1]]
			if len(row) == 0 {
				b.cur[v] = 0
				continue
			}
			slices.Sort(row)
			k := 1
			for i := 1; i < len(row); i++ {
				if row[i] != row[i-1] {
					row[k] = row[i]
					k++
				}
			}
			b.cur[v] = int32(k)
		}
	}
	if w == 1 {
		finalizeRange(0, b.n)
	} else {
		var wg sync.WaitGroup
		per := (b.n + w - 1) / w
		for lo := 0; lo < b.n; lo += per {
			hi := min(lo+per, b.n)
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				finalizeRange(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}

	// Serial compaction: slide every row's deduped prefix left over the
	// holes and rebuild offsets — O(m) copies total, in row order.
	var write int64
	for v := 0; v < b.n; v++ {
		start := b.offsets[v]
		k := int64(b.cur[v])
		if start != write && k > 0 {
			copy(b.cols[write:write+k], b.cols[start:start+k])
		}
		b.offsets[v] = write
		write += k
	}
	b.offsets[b.n] = write

	g := &Graph{n: b.n, offsets: b.offsets, cols: b.cols[:write]}
	b.offsets, b.cols, b.cur = nil, nil, nil
	return g, nil
}
