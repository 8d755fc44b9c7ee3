package sim

import (
	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

// RunCSR simulates factory's algorithm on a graph given directly in
// compressed-sparse-row form — the construction target of the
// direct-to-CSR pipeline (graph.CSRBuilder, the RMAT/configmodel
// generators, the file loaders). When the run resolves to the sparse
// engine (an explicit EngineSparse pin, or EngineAuto on a graph that
// is too sparse or too large for the matrix), the round loop executes
// over c itself and no adjacency-Graph is ever materialised. The
// columnar engine builds its matrix from graph.FromCSR(c) — a
// zero-copy view whose adjacency slices alias c's storage.
//
// Results are bit-identical to Run(graph.FromCSR(c), …) with the same
// arguments, for every engine and shard count.
func RunCSR(c *graph.CSR, factory beep.Factory, master *rng.Source, opts Options) (*Result, error) {
	r, err := prepare(c, factory, master, opts)
	if err != nil {
		return nil, err
	}
	if r.engine == EngineColumnar {
		return runColumnar(r, graph.FromCSR(c).Matrix())
	}
	return runColumnar(r, c)
}
