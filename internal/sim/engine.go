package sim

import (
	"fmt"
	"runtime"

	"beepmis/internal/graph"
)

// EffectiveShards resolves a shard-count option to the value the
// columnar round loops actually run with: non-positive (the Options
// zero value) means one shard per available CPU, runtime.GOMAXPROCS(0).
// Everything that reports or keys on a shard count — bench records, the
// regression gate — must resolve through here so that "-shards 0" and
// an explicit "-shards GOMAXPROCS" name the same configuration.
func EffectiveShards(shards int) int {
	if shards <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return shards
}

// Engine selects the adjacency representation the simulator's one
// round loop runs over. The loop itself — packed node masks, bulk
// algorithm kernels (or the per-node adapter for algorithms without
// one), sharded exchanges — is the same for every engine, and every
// engine draws node randomness from the same per-node streams, so
// results are bit-identical across engines for a given (graph, factory,
// seed, opts); engines differ only in speed and memory.
type Engine uint8

const (
	// EngineAuto picks the representation by size and density:
	// EngineColumnar when the packed adjacency matrix fits the memory
	// budget and the graph is dense enough for word-parallel delivery
	// to win, EngineSparse otherwise. This is the default. See
	// ResolveEngine.
	EngineAuto Engine = iota
	// EngineScalar is the legacy name of the engine that walked
	// adjacency lists edge by edge. It runs EngineSparse, which walks
	// the same lists in CSR form (see Canonical).
	EngineScalar
	// EngineBitset is the legacy name of the engine that ORed packed
	// adjacency rows under a per-node round loop. It runs
	// EngineColumnar, which ORs the same rows (see Canonical).
	EngineBitset
	// EngineColumnar runs the round loop over the dense packed
	// adjacency matrix: one word OR informs 64 listeners, and
	// propagation is sharded across Options.Shards goroutines by
	// destination word range. Requires O(n²/8) bytes for the matrix.
	EngineColumnar
	// EngineSparse runs the round loop over the O(n + m) CSR
	// representation instead: per exchange it walks only the CSR rows
	// of the current emitters into the heard bitset, sharded across
	// Options.Shards goroutines by emitter range into per-shard
	// buffers that are then merged by destination range (or it pulls
	// from the listeners' rows, sharded by destination range, when
	// that is cheaper). The engine whose memory scales with edges
	// rather than n², so it is how million-node graphs run.
	EngineSparse
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineScalar:
		return "scalar"
	case EngineBitset:
		return "bitset"
	case EngineColumnar:
		return "columnar"
	case EngineSparse:
		return "sparse"
	default:
		return fmt.Sprintf("engine(%d)", uint8(e))
	}
}

// ParseEngine converts a command-line engine name to an Engine. The
// legacy names "scalar" and "bitset" stay accepted, so old specs, HTTP
// bodies and flags keep working; Canonical says what they run.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto", "":
		return EngineAuto, nil
	case "scalar":
		return EngineScalar, nil
	case "bitset":
		return EngineBitset, nil
	case "columnar":
		return EngineColumnar, nil
	case "sparse":
		return EngineSparse, nil
	default:
		return EngineAuto, fmt.Errorf("sim: unknown engine %q (want auto, scalar, bitset, columnar, or sparse)", s)
	}
}

// Canonical returns the engine e actually runs: EngineScalar runs
// EngineSparse and EngineBitset runs EngineColumnar — each pair shares
// its adjacency representation — and every other engine is its own
// canonical form. This is the one place the legacy names resolve.
func (e Engine) Canonical() Engine {
	switch e {
	case EngineScalar:
		return EngineSparse
	case EngineBitset:
		return EngineColumnar
	default:
		return e
	}
}

// DefaultMemoryBudget caps the dense matrix EngineAuto will build when
// Options.MemoryBudget is zero: 2 GiB covers a matrix up to n = 10⁵
// (1.25 GiB) with headroom and refuses it in the n ≥ 10⁶ regime, where
// the matrix alone would be 125 GiB — there the CSR representation
// (O(n + m) bytes) runs instead. An explicit engine pin is honoured
// regardless of the budget — the caller knows their machine.
const DefaultMemoryBudget = int64(2) << 30

// ResolveEngine reports the engine a run of g under opts will actually
// execute: the canonical form of a non-auto Options.Engine, and the
// auto heuristic's choice otherwise. Exported so callers (misbench
// records, capacity planners) can observe the selection.
func ResolveEngine(g *graph.Graph, opts Options) Engine {
	return resolveEngine(opts.Engine, g.N(), g.M(), opts.MemoryBudget)
}

// resolveEngine is ResolveEngine over counts: the pin's canonical form,
// or the auto heuristic's choice for an n-vertex, m-edge graph.
func resolveEngine(pin Engine, n, m int, budget int64) Engine {
	if pin != EngineAuto {
		return pin.Canonical()
	}
	return ResolveEngineFromCounts(n, m, budget)
}

// ResolveEngineFromCounts is the auto heuristic over counts instead of
// a built graph: n vertices, m edges, and the memory budget (<= 0 means
// DefaultMemoryBudget). It picks EngineColumnar when the packed matrix
// fits the budget and the graph is dense enough for word-parallel
// delivery to win (bitsetWorthwhile), and EngineSparse otherwise. The
// budget gates only the matrix: the CSR is the smallest representation
// the loop has. ResolveEngine delegates here; the scenario compiler's
// admission planning calls it directly with its *expected* edge
// counts, so the two can never drift apart.
func ResolveEngineFromCounts(n, m int, budget int64) Engine {
	if budget <= 0 {
		budget = DefaultMemoryBudget
	}
	if graph.MatrixBytes(n) <= budget && bitsetWorthwhile(n, m) {
		return EngineColumnar
	}
	return EngineSparse
}

// bitsetWorthwhile is EngineAuto's density heuristic. Per emitting
// node a matrix exchange costs ⌈n/64⌉ word ORs against deg(v) random
// writes for a CSR row walk, so the break-even density is an average
// degree of about n/64; word ops are cheaper than scattered writes, so
// the threshold takes half that. Tiny graphs always qualify — the
// matrix is a few cache lines. (Whether the matrix fits the memory
// budget is the resolver's job, not this predicate's.)
func bitsetWorthwhile(n, m int) bool {
	if n == 0 {
		return false
	}
	if n <= 1024 {
		return true
	}
	words := float64((n + 63) / 64)
	return 2*float64(m)/float64(n) >= words/2
}
