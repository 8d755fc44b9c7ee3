package sim

import (
	"runtime"
	"testing"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
)

// TestSetupPartitionMatchesSerial pins the run's setup and finish
// phases against per-node references at shard counts 1, 3 (an uneven
// partition), GOMAXPROCS and 2×GOMAXPROCS, on an n above
// drawShardMinNodes (so both phases fan out) that is not a multiple of
// 64, with isolated vertices. Setup must derive every node's stream,
// the hasNeighbors mask and the max degree exactly; finish must give
// every node the state the masks' precedence names (active, then MIS
// member, then crashed, else dominated) and the membership bit, on
// masks that overlap. Both phases must allocate nothing.
func TestSetupPartitionMatchesSerial(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	gmp := runtime.GOMAXPROCS(0)

	const n = 3*drawShardMinNodes + 37
	g := graph.GNP(n, 2.0/n, rng.New(31)) // mean degree 2: about n/e² isolated
	master := rng.New(77)
	wantHas := graph.NewBitset(n)
	for v := 0; v < n; v++ {
		if g.Degree(v) > 0 {
			wantHas.Set(v)
		}
	}
	if wantHas.Count() == n {
		t.Fatal("the graph has no isolated vertex")
	}
	wantMax := g.MaxDegree()

	maskSrc := rng.New(5)
	randomMask := func() graph.Bitset {
		b := graph.NewBitset(n)
		for v := 0; v < n; v++ {
			if maskSrc.Intn(3) == 0 {
				b.Set(v)
			}
		}
		return b
	}
	activeB, inMIS, crashed := randomMask(), randomMask(), randomMask()
	wantStates := make([]beep.State, n)
	for v := range wantStates {
		switch {
		case activeB.Test(v):
			wantStates[v] = beep.StateActive
		case inMIS.Test(v):
			wantStates[v] = beep.StateInMIS
		case crashed.Test(v):
			wantStates[v] = beep.StateCrashed
		default:
			wantStates[v] = beep.StateDominated
		}
	}

	for _, shards := range []int{1, 3, gmp, 2 * gmp} {
		res := &Result{InMIS: make([]bool, n), States: make([]beep.State, n)}
		l := newColumnarLoop(g, g, res, shards, nil)
		if shards > 1 && !l.fans(n) {
			l.close()
			t.Fatalf("shards=%d: setup did not fan out", shards)
		}
		maxDeg := l.setup(master)
		l.finish(activeB, inMIS, crashed)
		setupAllocs := testing.AllocsPerRun(5, func() { l.setup(master) })
		finishAllocs := testing.AllocsPerRun(5, func() { l.finish(activeB, inMIS, crashed) })
		l.close()
		if maxDeg != wantMax {
			t.Fatalf("shards=%d: max degree %d, want %d", shards, maxDeg, wantMax)
		}
		for wi := range wantHas {
			if l.hasNeighbors[wi] != wantHas[wi] {
				t.Fatalf("shards=%d: hasNeighbors word %d = %064b, want %064b", shards, wi, l.hasNeighbors[wi], wantHas[wi])
			}
		}
		for v := 0; v < n; v++ {
			if l.streams[v] != *master.Stream(uint64(v)) {
				t.Fatalf("shards=%d: node %d's stream differs from master.Stream(%d)", shards, v, v)
			}
			if res.States[v] != wantStates[v] || res.InMIS[v] != inMIS.Test(v) {
				t.Fatalf("shards=%d: node %d finished %v (in MIS %v), want %v (%v)", shards, v, res.States[v], res.InMIS[v], wantStates[v], inMIS.Test(v))
			}
		}
		if setupAllocs != 0 || finishAllocs != 0 {
			t.Fatalf("shards=%d: setup allocates %v and finish %v per call, want 0", shards, setupAllocs, finishAllocs)
		}
	}
}

// TestSparseRunAllocatedBytes bounds the bytes one sparse run of the
// feedback kernel allocates on G(10⁵, 10/n). A run needs, per node, its
// rng stream (40 B, in one contiguous array), Result.Beeps (8 B), the
// kernel's probability (8 B) and Result.States and Result.InMIS (1 B
// each), plus a dozen n/8-byte masks. The bound grants those and 2 B
// per node more, so a per-run pointer slice over the streams or a
// per-run degree array (8 B per node each) cannot come back unnoticed.
func TestSparseRunAllocatedBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds G(10⁵, 10/n)")
	}
	const (
		n      = 100000
		shards = 2
	)
	g := graph.GNP(n, 10.0/n, rng.New(5))
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Engine: EngineSparse, Shards: shards, Bulk: bulk}
	run := func(seed uint64) {
		if _, err := Run(g, factory, rng.New(seed), opts); err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(2)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	maskBytes := uint64(16+shards) * uint64(n+63) / 64 * 8
	bound := uint64(n)*(40+8+8+1+1+2) + maskBytes
	t.Logf("a run allocated %d bytes (%.1f per node); bound %d", got, float64(got)/n, bound)
	if got > bound {
		t.Fatalf("a sparse run on G(%d, 10/n) allocated %d bytes, over the bound of %d", n, got, bound)
	}
}
