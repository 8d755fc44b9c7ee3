package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"beepmis/internal/rng"
)

// This file holds the web-scale generators that construct their rows
// directly through CSRBuilder. They all share one determinism
// discipline, the same one rng.Stream gives the simulator: the edge
// stream is split into chunks whose boundaries are a pure function of
// the parameters (never of the worker count), and chunk k draws every
// sample from the sub-stream src.Stream(k). Workers claim chunks from
// an atomic counter, so which goroutine generates a chunk is scheduling
// luck — but the chunk's edges are not, and the builder's sort-based
// finalisation erases placement order. The same chunks are regenerated
// identically in the counting and placement passes, which is what lets
// the pipeline run without ever buffering the edge list.

// csrGenChunkEdges is the target edge count per generator chunk: big
// enough that the per-chunk stream derivation and atomic chunk claim
// are noise, small enough that work-stealing balances tails across
// workers.
const csrGenChunkEdges = 1 << 18

// runCSRGenPass streams every chunk through gen once, on up to
// `workers` goroutines (≤0 means GOMAXPROCS). gen receives the chunk
// index, the chunk's private stream, and the builder method to feed
// (Count on pass one, Place on pass two).
func runCSRGenPass(src *rng.Source, numChunks int64, workers int, gen func(k int64, s *rng.Source, emit func(u, v int32))) {
	w := finalizeWorkers(workers, int(min(numChunks, 1<<30)))
	if w == 1 {
		var s rng.Source
		for k := int64(0); k < numChunks; k++ {
			src.StreamInto(&s, uint64(k))
			gen(k, &s, nil)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s rng.Source
			for {
				k := atomic.AddInt64(&next, 1) - 1
				if k >= numChunks {
					return
				}
				src.StreamInto(&s, uint64(k))
				gen(k, &s, nil)
			}
		}()
	}
	wg.Wait()
}

// buildChunkedCSR drives the full two-pass protocol for a chunked
// generator: pass one counts, pass two places, then the builder
// finalises. gen must emit exactly the same edges for a given (chunk,
// stream) on both invocations — it is called with emit=b.Count, then
// emit=b.Place.
func buildChunkedCSR(n int, numChunks int64, src *rng.Source, workers int, gen func(k int64, s *rng.Source, emit func(u, v int32))) (*Graph, error) {
	b := NewCSRBuilder(n)
	runCSRGenPass(src, numChunks, workers, func(k int64, s *rng.Source, _ func(u, v int32)) {
		gen(k, s, b.Count)
	})
	if err := b.FinishCounts(); err != nil {
		return nil, err
	}
	runCSRGenPass(src, numChunks, workers, func(k int64, s *rng.Source, _ func(u, v int32)) {
		gen(k, s, b.Place)
	})
	return b.Finish(workers)
}

// RMAT generates a recursive-matrix (R-MAT/Kronecker) graph with n
// vertices (n must be a power of two ≥ 2) by sampling `edges` edges:
// each edge walks log2(n) levels of the recursive adjacency-matrix
// quadrant split, choosing a quadrant with probabilities (a, b, c, d)
// per level. The probabilities must be non-negative and sum to 1; the
// Graph500 defaults (0.57, 0.19, 0.19, 0.05) give the heavy-tailed
// degree distribution real web/social graphs show.
//
// Self-loops are dropped and duplicate samples deduplicated, so the
// final edge count is at most (and for skewed parameter sets
// measurably below) the requested count — the standard R-MAT contract.
// Output is bit-identical for any worker count.
func RMAT(n int, edges int64, a, b, c, d float64, src *rng.Source, workers int) (*Graph, error) {
	scale := 0
	for 1<<scale < n {
		scale++
	}
	if n < 2 || 1<<scale != n {
		return nil, fmt.Errorf("graph: RMAT vertex count %d is not a power of two ≥ 2", n)
	}
	if edges < 0 {
		return nil, fmt.Errorf("graph: RMAT edge count %d negative", edges)
	}
	if err := ValidateRMATProbs(a, b, c, d); err != nil {
		return nil, err
	}
	ab, abc := a+b, a+b+c
	numChunks := (edges + csrGenChunkEdges - 1) / csrGenChunkEdges
	return buildChunkedCSR(n, numChunks, src, workers, func(k int64, s *rng.Source, emit func(u, v int32)) {
		lo := k * csrGenChunkEdges
		hi := min(lo+csrGenChunkEdges, edges)
		for i := lo; i < hi; i++ {
			var u, v int32
			for l := 0; l < scale; l++ {
				r := s.Float64()
				u <<= 1
				v <<= 1
				switch {
				case r < a:
					// top-left: both bits 0
				case r < ab:
					v |= 1
				case r < abc:
					u |= 1
				default:
					u |= 1
					v |= 1
				}
			}
			emit(u, v)
		}
	})
}

// ValidateRMATProbs checks an R-MAT quadrant distribution (exported so
// the scenario compiler validates without building).
func ValidateRMATProbs(a, b, c, d float64) error {
	for _, p := range [4]float64{a, b, c, d} {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return fmt.Errorf("graph: RMAT probabilities (%v,%v,%v,%v) must each lie in [0,1]", a, b, c, d)
		}
	}
	if s := a + b + c + d; math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("graph: RMAT probabilities sum to %v, want 1", s)
	}
	return nil
}

// ConfigModel generates a power-law random graph with n vertices and
// (up to) `edges` edges in the Chung–Lu expected-degree flavour of the
// configuration model: vertex i carries weight (i+1)^(-1/(gamma-1)) —
// the weight sequence whose expected degrees follow a power law with
// exponent gamma — and each edge picks both endpoints independently
// with probability proportional to weight, via binary search in the
// weight prefix-sum table.
//
// The strict stub-pairing configuration model is inherently sequential
// (each match consumes two stubs from a shared pool, so the result
// depends on match order); the Chung–Lu form has the same expected
// degree sequence, and its read-only prefix-sum table makes sampling
// embarrassingly parallel and deterministic for any worker count —
// which is why it is the form web-scale graph suites (GAP, Graph500
// comparisons) generate. gamma must exceed 2 (finite mean degree);
// self-loops are dropped and duplicates deduplicated, so the final
// edge count is at most the requested count.
func ConfigModel(n int, edges int64, gamma float64, src *rng.Source, workers int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: configmodel vertex count %d < 1", n)
	}
	if edges < 0 {
		return nil, fmt.Errorf("graph: configmodel edge count %d negative", edges)
	}
	if math.IsNaN(gamma) || gamma <= 2 {
		return nil, fmt.Errorf("graph: configmodel exponent gamma=%v must exceed 2", gamma)
	}
	// cum[i] = Σ_{j≤i} w_j; built once, read-only during both passes.
	// 8n transient bytes — dwarfed by the column array for any graph
	// with average degree above 2.
	alpha := -1 / (gamma - 1)
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), alpha)
		cum[i] = total
	}
	numChunks := (edges + csrGenChunkEdges - 1) / csrGenChunkEdges
	return buildChunkedCSR(n, numChunks, src, workers, func(k int64, s *rng.Source, emit func(u, v int32)) {
		lo := k * csrGenChunkEdges
		hi := min(lo+csrGenChunkEdges, edges)
		for i := lo; i < hi; i++ {
			u := int32(sort.SearchFloat64s(cum, s.Float64()*total))
			v := int32(sort.SearchFloat64s(cum, s.Float64()*total))
			if int(u) >= n {
				u = int32(n - 1) // r*total == total at the fp boundary
			}
			if int(v) >= n {
				v = int32(n - 1)
			}
			emit(u, v)
		}
	})
}
