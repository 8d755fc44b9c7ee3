package graph

import (
	"testing"

	"beepmis/internal/rng"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130) // spans three words, last one partial
	if got := len(b); got != 3 {
		t.Fatalf("NewBitset(130) has %d words, want 3", got)
	}
	if b.Any() {
		t.Fatal("fresh bitset is non-empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.Set(i)
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	if !b.Test(64) || b.Test(2) {
		t.Fatal("Test disagrees with Set")
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 7 {
		t.Fatal("Clear did not remove the element")
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	want := []int{0, 1, 63, 65, 127, 128, 129}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
	b.Zero()
	if b.Any() || b.Count() != 0 {
		t.Fatal("Zero did not empty the set")
	}
}

func TestBitsetOrAndNot(t *testing.T) {
	a, b := NewBitset(200), NewBitset(200)
	for i := 0; i < 200; i += 3 {
		a.Set(i)
	}
	for i := 0; i < 200; i += 5 {
		b.Set(i)
	}
	u := NewBitset(200)
	u.Or(a)
	u.Or(b)
	d := NewBitset(200)
	d.Or(a)
	d.AndNot(b)
	for i := 0; i < 200; i++ {
		inA, inB := i%3 == 0, i%5 == 0
		if u.Test(i) != (inA || inB) {
			t.Fatalf("union wrong at %d", i)
		}
		if d.Test(i) != (inA && !inB) {
			t.Fatalf("difference wrong at %d", i)
		}
	}
}

// TestAdjacencyMatrixFamilies cross-checks the packed representation
// against the CSR form for every graph family the engine equivalence
// suite uses, plus shapes that stress word boundaries.
func TestAdjacencyMatrixFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
	}{
		{"empty", Empty(0)},
		{"isolated-65", Empty(65)},
		{"path-64", Path(64)},
		{"path-65", Path(65)},
		{"complete-40", Complete(40)},
		{"complete-129", Complete(129)},
		{"grid-9x9", Grid(9, 9)},
		{"gnp-200-half", GNP(200, 0.5, rng.New(1))},
		{"gnp-300-sparse", GNP(300, 0.02, rng.New(2))},
		{"cliquefamily-216", CliqueFamily(216)},
		{"unitdisk-150", UnitDisk(150, 0.15, rng.New(3))},
		{"star-100", Star(100)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m := NewAdjacencyMatrix(tc.g)
			n := tc.g.N()
			if m.N() != n {
				t.Fatalf("matrix N = %d, want %d", m.N(), n)
			}
			for v := 0; v < n; v++ {
				row := m.Row(v)
				if got, want := row.Count(), tc.g.Degree(v); got != want {
					t.Fatalf("row %d popcount = %d, want degree %d", v, got, want)
				}
				var fromRow []int
				row.ForEach(func(w int) { fromRow = append(fromRow, w) })
				nbrs := tc.g.Neighbors(v)
				if len(fromRow) != len(nbrs) {
					t.Fatalf("row %d has %d bits, want %d neighbours", v, len(fromRow), len(nbrs))
				}
				for i, w := range nbrs {
					if fromRow[i] != int(w) {
						t.Fatalf("row %d bit %d = %d, want %d", v, i, fromRow[i], w)
					}
				}
				if m.HasEdge(v, v) {
					t.Fatalf("matrix reports self-loop at %d", v)
				}
			}
			// Spot-check HasEdge symmetry against the CSR query.
			for u := 0; u < n; u++ {
				for _, w := range tc.g.Neighbors(u) {
					if !m.HasEdge(u, int(w)) || !m.HasEdge(int(w), u) {
						t.Fatalf("matrix missing edge {%d,%d}", u, w)
					}
				}
			}
		})
	}
}

func TestAdjacencyMatrixOrRowInto(t *testing.T) {
	g := GNP(150, 0.3, rng.New(7))
	m := NewAdjacencyMatrix(g)
	// OR-ing rows 3, 77 and 149 must give exactly the union of their
	// neighbourhoods.
	dst := NewBitset(g.N())
	srcs := []int{3, 77, 149}
	for _, v := range srcs {
		m.OrRowInto(dst, v)
	}
	want := map[int]bool{}
	for _, v := range srcs {
		for _, w := range g.Neighbors(v) {
			want[int(w)] = true
		}
	}
	for v := 0; v < g.N(); v++ {
		if dst.Test(v) != want[v] {
			t.Fatalf("union bit %d = %v, want %v", v, dst.Test(v), want[v])
		}
	}
}

func TestGraphMatrixCached(t *testing.T) {
	g := Grid(8, 8)
	m1 := g.Matrix()
	m2 := g.Matrix()
	if m1 != m2 {
		t.Fatal("Matrix not cached: two calls returned distinct representations")
	}
	if m1.N() != g.N() {
		t.Fatalf("cached matrix N = %d, want %d", m1.N(), g.N())
	}
	// Clone must not share the cache (its matrix is built from its own
	// adjacency).
	c := g.Clone()
	if c.Matrix() == m1 {
		t.Fatal("Clone shares the original's cached matrix")
	}
}

func TestMatrixBytes(t *testing.T) {
	tests := []struct {
		n    int
		want int64
	}{
		{0, 0},
		{1, 8},
		{64, 8 * 64},
		{65, 16 * 65},
		{100000, 8 * 1563 * 100000},
	}
	for _, tc := range tests {
		if got := MatrixBytes(tc.n); got != tc.want {
			t.Fatalf("MatrixBytes(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestBitsetFill(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 200} {
		b := NewBitset(200)
		b.Set(199) // Fill must clear bits beyond n
		b.Fill(n)
		if got := b.Count(); got != n {
			t.Fatalf("Fill(%d): count %d", n, got)
		}
		for i := 0; i < 200; i++ {
			if b.Test(i) != (i < n) {
				t.Fatalf("Fill(%d): bit %d = %v", n, i, b.Test(i))
			}
		}
	}
}

func TestBitsetAndAndCount(t *testing.T) {
	src := rng.New(3)
	a := NewBitset(300)
	b := NewBitset(300)
	want := map[int]bool{}
	for i := 0; i < 300; i++ {
		inA := src.Intn(2) == 1
		inB := src.Intn(2) == 1
		if inA {
			a.Set(i)
		}
		if inB {
			b.Set(i)
		}
		want[i] = inA && inB
	}
	wantCount := 0
	for _, w := range want {
		if w {
			wantCount++
		}
	}
	if got := a.AndCount(b); got != wantCount {
		t.Fatalf("AndCount = %d, want %d", got, wantCount)
	}
	a.And(b)
	for i := 0; i < 300; i++ {
		if a.Test(i) != want[i] {
			t.Fatalf("And: bit %d = %v, want %v", i, a.Test(i), want[i])
		}
	}
	if got := a.Count(); got != wantCount {
		t.Fatalf("And: count %d, want %d", got, wantCount)
	}
}

// TestMatrixExchangeShardInvariance is the determinism-under-sharding
// contract of the matrix push: for random graphs and emitter sets, the
// planned exchange run by destination range over every shard count
// yields word-identical output, equal to the serial reference union of
// adjacency rows.
func TestMatrixExchangeShardInvariance(t *testing.T) {
	src := rng.New(31)
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"gnp-400-dense", GNP(400, 0.5, rng.New(1))},
		{"gnp-500-sparse", GNP(500, 0.01, rng.New(2))},
		{"grid-20x20", Grid(20, 20)},
		{"complete-129", Complete(129)},
		{"empty-100", Empty(100)},
	} {
		m := tc.g.Matrix()
		n := tc.g.N()
		for trial := 0; trial < 5; trial++ {
			emitters := NewBitset(n)
			for v := 0; v < n; v++ {
				if src.Intn(4) == 0 {
					emitters.Set(v)
				}
			}
			// Serial reference via the pre-existing whole-row op.
			want := NewBitset(n)
			emitters.ForEach(func(v int) { m.OrRowInto(want, v) })
			for _, shards := range []int{0, 1, 2, 3, 7, 64, 1000} {
				got := NewBitset(n)
				got.Fill(n) // the exchange must fully overwrite dst
				exchangeSharded(m, m.PlanExchange(nil, emitters, shards), got, nil, emitters, shards)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%s trial %d shards %d: word %d differs", tc.name, trial, shards, i)
					}
				}
			}
		}
	}
}
