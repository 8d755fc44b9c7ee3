package graph

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// CSRBuilder constructs a CSR directly from an edge stream, without the
// intermediate pointer-per-row adjacency Graph: no per-edge appends into
// [][]int32, no realloc churn, and a construction peak of ~1.2× the
// final CSRBytes footprint instead of the ~3× the Builder→NewCSR path
// transiently holds. It is the construction target of the web-scale
// generators (RMAT, configuration model, sparse GNP) and the streamed
// file loaders, sized for 10⁷–10⁸ edges.
//
// Construction is a deterministic two-pass protocol:
//
//  1. Counting: the caller streams every edge once through Count (or
//     CountArc), from any number of goroutines — degrees accumulate by
//     atomic adds directly into the offsets array, so the pass needs no
//     per-worker counter copies.
//  2. FinishCounts turns the counts into row offsets by one serial
//     prefix sum and allocates the flat column array.
//  3. Placement: the caller streams the same edges again through Place
//     (or PlaceArc), again from any goroutines — each arc lands at an
//     atomically bumped per-row cursor. The placement order is
//     scheduling-dependent, but irrelevant: finalisation sorts each row.
//  4. Finish sorts and dedupes every row in place (self-loops were
//     dropped at insertion), compacts the column array over the holes
//     dedupe left, and rebuilds the offsets.
//
// The result is bit-identical to the Builder→NewCSR path for the same
// edge set, for ANY worker count and ANY insertion order — each row's
// final content is the sorted set of its neighbours, a pure function of
// the edge set. The two passes must stream exactly the same edges;
// generators replay their per-chunk rng streams, file loaders re-read
// the file. A mismatch is detected and reported by Finish, never
// silently mis-built.
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

// CountArc registers the directed arc u→v for the counting pass: only
// u's row grows. The METIS loader uses it — that format already lists
// every undirected edge once per endpoint row, so counting both
// directions per line would double the graph. Safe for concurrent
// callers.
func (b *CSRBuilder) CountArc(u, v int32) {
	if u == v {
		return
	}
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		b.setErr(fmt.Errorf("graph: CSRBuilder arc %d→%d out of range for n=%d", u, v, b.n))
		return
	}
	atomic.AddInt64(&b.offsets[u+1], 1)
}

// FinishCounts closes the counting pass: one serial prefix sum turns
// the per-row counts into row offsets, and the flat column array is
// allocated at its exact final capacity. Must be called once, between
// the passes, with no concurrent Count/CountArc calls.
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

// Place inserts the undirected edge {u, v} in the placement pass. The
// edge stream must be exactly the counting pass's stream (in any
// order); a divergence is caught by Finish. Safe for concurrent
// callers.
func (b *CSRBuilder) Place(u, v int32) {
	if u == v {
		return
	}
	b.PlaceArc(u, v)
	b.PlaceArc(v, u)
}

// PlaceArc inserts the directed arc u→v in the placement pass; the
// METIS counterpart of CountArc. Safe for concurrent callers.
func (b *CSRBuilder) PlaceArc(u, v int32) {
	if u == v {
		return
	}
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		b.setErr(fmt.Errorf("graph: CSRBuilder arc %d→%d out of range for n=%d", u, v, b.n))
		return
	}
	slot := atomic.AddInt32(&b.cur[u], 1) - 1
	idx := b.offsets[u] + int64(slot)
	if idx >= b.offsets[u+1] {
		// More arcs placed into this row than were counted: the two
		// passes diverged. Refuse the write — it would land in the next
		// row's territory — and let Finish report it.
		b.setErr(fmt.Errorf("graph: CSRBuilder placement overflow at row %d: placement pass emitted more arcs than the counting pass", u))
		return
	}
	b.cols[idx] = v
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

// Finish closes the placement pass and finalises the CSR: every row is
// sorted and deduplicated in place (row ranges are partitioned across
// up to `workers` goroutines; ≤0 means GOMAXPROCS), the column array is
// compacted over dedupe's holes, and the offsets are rebuilt. The
// builder must not be used after Finish.
//
// The result is identical for every worker count: each row's final
// content depends only on the set of arcs placed into it.
func (b *CSRBuilder) Finish(workers int) (*CSR, error) {
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
			sort.Sort(int32Slice(row))
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

	c := &CSR{n: b.n, offsets: b.offsets, cols: b.cols[:write]}
	b.offsets, b.cols, b.cur = nil, nil, nil
	return c, nil
}

// int32Slice implements sort.Interface; the stdlib has no int32 sort
// and a sort.Slice closure per row costs an allocation on the hottest
// loop of construction.
type int32Slice []int32

func (s int32Slice) Len() int           { return len(s) }
func (s int32Slice) Less(i, j int) bool { return s[i] < s[j] }
func (s int32Slice) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// MaxDegree returns the maximum row length, or 0 for an empty CSR. Like
// Graph.MaxDegree it is an O(n) scan; the simulator calls it once per
// run.
func (c *CSR) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < c.n; v++ {
		if d := int(c.offsets[v+1] - c.offsets[v]); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// Validate checks the CSR's structural invariants — monotone offsets,
// sorted strictly-deduplicated rows, in-range columns, no self-loops,
// symmetry — mirroring Graph.Validate. Generators and loaders are
// tested through it; O(m log m).
func (c *CSR) Validate() error {
	if len(c.offsets) != c.n+1 || c.offsets[0] != 0 || c.offsets[c.n] != int64(len(c.cols)) {
		return fmt.Errorf("graph: CSR offsets malformed (n=%d, len=%d, first=%d, last=%d, cols=%d)",
			c.n, len(c.offsets), c.offsets[0], c.offsets[c.n], len(c.cols))
	}
	for v := 0; v < c.n; v++ {
		if c.offsets[v] > c.offsets[v+1] {
			return fmt.Errorf("graph: CSR offsets decrease at row %d", v)
		}
		row := c.Row(v)
		for i, w := range row {
			if w < 0 || int(w) >= c.n {
				return fmt.Errorf("%w: CSR row %d contains %d", ErrVertexRange, v, w)
			}
			if int(w) == v {
				return fmt.Errorf("graph: CSR self-loop at %d", v)
			}
			if i > 0 && row[i-1] >= w {
				return fmt.Errorf("graph: CSR row %d not strictly sorted at index %d", v, i)
			}
			if !c.HasEdge(int(w), v) {
				return fmt.Errorf("graph: CSR asymmetric edge {%d,%d}", v, w)
			}
		}
	}
	return nil
}

// FromCSR returns a *Graph view over c: the adjacency slices alias c's
// column storage (zero copies — the view costs one slice header per
// vertex), and the view's CSR() returns c itself rather than
// rebuilding. This is how direct-to-CSR construction plugs into every
// consumer of *Graph — the verifier, the scalar engine, metrics —
// without materialising a second representation; the CSR remains the
// storage. The view is immutable like any built Graph; c must not be
// mutated afterwards (CSRs never are).
func FromCSR(c *CSR) *Graph {
	return fromCSR(c, make([][]int32, c.n))
}

// fromCSR is FromCSR with the adjacency headers' storage supplied; adj
// must have length c.N().
func fromCSR(c *CSR, adj [][]int32) *Graph {
	for v := 0; v < c.n; v++ {
		adj[v] = c.cols[c.offsets[v]:c.offsets[v+1]:c.offsets[v+1]]
	}
	g := &Graph{adj: adj, m: c.M()}
	g.csrOnce.Do(func() { g.csr = c })
	return g
}
