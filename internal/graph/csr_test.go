package graph

import (
	"testing"

	"beepmis/internal/rng"
)

// buildCSRGraphs returns a spread of shapes that straddle word
// boundaries so packing bugs cannot hide.
func buildCSRGraphs() map[string]*Graph {
	return map[string]*Graph{
		"empty":      Empty(0),
		"isolated":   Empty(100),
		"path-65":    Path(65),
		"star-129":   Star(129),
		"complete":   Complete(96),
		"gnp-dense":  GNP(200, 0.5, rng.New(1)),
		"gnp-sparse": GNP(1000, 0.004, rng.New(2)),
		"grid":       Grid(13, 17),
	}
}

// TestCSRMatchesGraph checks the row accessors against the packed
// matrix of the same graph: Degree, Neighbors and HasEdge's binary
// search must agree with the matrix's bits everywhere, and HasEdge is
// false out of range.
func TestCSRMatchesGraph(t *testing.T) {
	for name, g := range buildCSRGraphs() {
		mat := g.Matrix()
		for v := 0; v < g.N(); v++ {
			row := g.Neighbors(v)
			if len(row) != g.Degree(v) || len(row) != cap(row) || mat.Row(v).Count() != len(row) {
				t.Fatalf("%s: row %d length %d, cap %d, degree %d, matrix row %d", name, v, len(row), cap(row), g.Degree(v), mat.Row(v).Count())
			}
			for _, w := range row {
				if !mat.HasEdge(v, int(w)) {
					t.Fatalf("%s: row %d holds %d, absent from the matrix", name, v, w)
				}
			}
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if g.HasEdge(u, v) != mat.HasEdge(u, v) {
					t.Fatalf("%s: HasEdge(%d,%d) disagrees with the matrix", name, u, v)
				}
			}
		}
		if g.HasEdge(-1, 0) || g.HasEdge(0, g.N()) {
			t.Fatalf("%s: out-of-range HasEdge returned true", name)
		}
	}
}

// TestCSRBytes pins the footprint formula the auto-engine heuristic
// budgets with.
func TestCSRBytes(t *testing.T) {
	if got := CSRBytes(0, 0); got != 8 {
		t.Fatalf("CSRBytes(0,0) = %d, want 8", got)
	}
	// n = 10⁶, avg degree 10: 8·(n+1) offsets + 4·2m columns ≈ 48 MB —
	// the regime the dense matrix (125 GB) can never reach.
	if got := CSRBytes(1_000_000, 5_000_000); got != 8_000_008+40_000_000 {
		t.Fatalf("CSRBytes(1e6, 5e6) = %d", got)
	}
}

// TestCSRPropagateMatchesMatrix cross-checks sparse propagation against
// the dense matrix implementation for every shard count, including
// emitter sets dense enough to trigger the saturation early-exit: the
// planned exchange run as the round loop's pool would run it must agree
// with the serial matrix push within targets (everywhere when it
// pushes), and so must the push and the pull forced.
func TestCSRPropagateMatchesMatrix(t *testing.T) {
	for name, g := range buildCSRGraphs() {
		n := g.N()
		words := bitsetWords(n)
		mat := g.Matrix()
		src := rng.New(7)
		for trial := 0; trial < 8; trial++ {
			targets, emitters := randomMasks(n, trial, src)
			want := NewBitset(n)
			mat.ExchangeRange(ExchangePlan{Serial: true}, want, nil, emitters, 0, words)
			for _, shards := range []int{1, 2, 3, 7, 64} {
				for _, tc := range []struct {
					name string
					plan ExchangePlan
				}{
					{"planned", g.PlanExchange(targets, emitters, shards)},
					{"push", ExchangePlan{Scatter: true}},
					{"pull", ExchangePlan{Pull: true}},
				} {
					got := soiled(n)
					exchangeSharded(g, tc.plan, got, targets, emitters, shards)
					for i := range want {
						gw, ww := got[i], want[i]
						if tc.plan.Pull {
							gw &= targets[i]
							ww &= targets[i]
						}
						if gw != ww {
							t.Fatalf("%s trial %d shards %d %s (plan %+v): word %d = %x, want %x (targets %x)",
								name, trial, shards, tc.name, tc.plan, i, got[i], want[i], targets[i])
						}
					}
				}
			}
		}
	}
}
