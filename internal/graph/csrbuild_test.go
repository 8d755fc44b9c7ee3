package graph

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"beepmis/internal/rng"
)

// csrEqual reports whether two graphs' rows are bit-identical.
func csrEqual(a, b *Graph) bool {
	return a.n == b.n && slices.Equal(a.offsets, b.offsets) && slices.Equal(a.cols, b.cols)
}

// buildViaBuilder runs a graph's edge list through the two-pass
// builder on `workers` goroutines, splitting the edges into uneven
// contiguous spans so the parallel case really interleaves.
func buildViaBuilder(t *testing.T, g *Graph, workers int) *Graph {
	t.Helper()
	edges := g.Edges()
	b := NewCSRBuilder(g.N())
	feed := func(method func(u, v int32)) {
		if workers <= 1 {
			for _, e := range edges {
				method(int32(e[0]), int32(e[1]))
			}
			return
		}
		var wg sync.WaitGroup
		span := (len(edges) + workers - 1) / workers
		for lo := 0; lo < len(edges); lo += span {
			hi := min(lo+span, len(edges))
			wg.Add(1)
			go func(part [][2]int) {
				defer wg.Done()
				for _, e := range part {
					method(int32(e[0]), int32(e[1]))
				}
			}(edges[lo:hi])
		}
		wg.Wait()
	}
	feed(b.Count)
	if err := b.FinishCounts(); err != nil {
		t.Fatal(err)
	}
	feed(b.Place)
	c, err := b.Finish(workers)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCSRBuilderMatchesNewCSR is the construction-equivalence matrix:
// for every graph family, the two-pass builder fed the graph's edges
// from several goroutines must reproduce the graph — Builder output,
// or GNP's for the G(n,p) rows — bit for bit at every worker count:
// the builder's determinism contract.
func TestCSRBuilderMatchesNewCSR(t *testing.T) {
	src := rng.New(7)
	graphs := map[string]*Graph{
		"empty":          Empty(5),
		"single":         Empty(1),
		"complete":       Complete(9),
		"path":           Path(40),
		"cycle":          Cycle(17),
		"star":           Star(33),
		"grid":           Grid(6, 7),
		"torus":          Torus(5, 5),
		"cliques":        CliqueFamily(64),
		"tree":           RandomTree(50, src.Stream(1)),
		"gnp":            GNP(80, 0.15, src.Stream(2)),
		"gnp-dense":      GNP(40, 0.9, src.Stream(3)),
		"unitdisk":       UnitDisk(60, 0.3, src.Stream(4)),
		"binarytree":     CompleteBinaryTree(31),
		"cliquefamily-1": CliqueFamily(1),
	}
	if g, err := BarabasiAlbert(60, 3, src.Stream(5)); err == nil {
		graphs["barabasialbert"] = g
	} else {
		t.Fatal(err)
	}
	if g, err := WattsStrogatz(48, 4, 0.2, src.Stream(6)); err == nil {
		graphs["wattsstrogatz"] = g
	} else {
		t.Fatal(err)
	}
	if g, err := Hypercube(6); err == nil {
		graphs["hypercube"] = g
	} else {
		t.Fatal(err)
	}
	if g, err := RandomRegular(40, 4, src.Stream(8)); err == nil {
		graphs["randomregular"] = g
	} else {
		t.Fatal(err)
	}
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for name, g := range graphs {
		for _, w := range workerCounts {
			t.Run(fmt.Sprintf("%s/workers=%d", name, w), func(t *testing.T) {
				got := buildViaBuilder(t, g, w)
				if !csrEqual(got, g) {
					t.Fatalf("CSRBuilder rows differ from the graph's (n=%d m=%d)", g.N(), g.M())
				}
				if err := got.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCSRBuilderDeduplicates pins the builder half of the AddEdge
// contract: duplicate insertions collapse, and the final M() counts
// each undirected edge once.
func TestCSRBuilderDeduplicates(t *testing.T) {
	b := NewCSRBuilder(4)
	edges := [][2]int32{{0, 1}, {1, 0}, {0, 1}, {2, 3}, {3, 2}}
	for _, e := range edges {
		b.Count(e[0], e[1])
	}
	if err := b.FinishCounts(); err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		b.Place(e[0], e[1])
	}
	c, err := b.Finish(1)
	if err != nil {
		t.Fatal(err)
	}
	if c.M() != 2 {
		t.Fatalf("M() = %d after duplicate insertions, want 2", c.M())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCSRBuilderDropsSelfLoops: self-loops vanish silently (the
// generators rely on it — RMAT samples them freely).
func TestCSRBuilderDropsSelfLoops(t *testing.T) {
	b := NewCSRBuilder(3)
	b.Count(0, 0)
	b.Count(1, 2)
	b.Count(2, 2)
	if err := b.FinishCounts(); err != nil {
		t.Fatal(err)
	}
	b.Place(0, 0)
	b.Place(1, 2)
	b.Place(2, 2)
	c, err := b.Finish(1)
	if err != nil {
		t.Fatal(err)
	}
	if c.M() != 1 || !c.HasEdge(1, 2) {
		t.Fatalf("got m=%d, want exactly edge {1,2}", c.M())
	}
}

// TestCSRBuilderRangeError: an out-of-range endpoint is a sticky error
// reported at FinishCounts, never a panic or a silent drop.
func TestCSRBuilderRangeError(t *testing.T) {
	b := NewCSRBuilder(3)
	b.Count(0, 5)
	if err := b.FinishCounts(); err == nil {
		t.Fatal("out-of-range endpoint did not error")
	}
}

// TestCSRBuilderPassMismatch: placing edges the count pass never saw
// must fail Finish with the pass-mismatch error — the guard that makes
// the two-pass contract checkable rather than trusted.
func TestCSRBuilderPassMismatch(t *testing.T) {
	b := NewCSRBuilder(4)
	b.Count(0, 1)
	b.Count(2, 3)
	if err := b.FinishCounts(); err != nil {
		t.Fatal(err)
	}
	b.Place(0, 1)
	b.Place(0, 2) // overflow of row 0: counted one arc, placing two
	if _, err := b.Finish(1); err == nil {
		t.Fatal("pass mismatch did not error")
	}
}

// TestCSRBuilderUnderflow: placing fewer edges than counted must also
// fail (the rows would silently carry garbage otherwise).
func TestCSRBuilderUnderflow(t *testing.T) {
	b := NewCSRBuilder(4)
	b.Count(0, 1)
	b.Count(2, 3)
	if err := b.FinishCounts(); err != nil {
		t.Fatal(err)
	}
	b.Place(0, 1)
	if _, err := b.Finish(1); err == nil {
		t.Fatal("under-placed builder did not error")
	}
}

// TestCSRBuilderPeakBytes asserts the pipeline's memory contract: peak
// transient bytes stay within 1.5× the final CSR's storage, for sparse
// and dense shapes alike.
func TestCSRBuilderPeakBytes(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{1, 0}, {100, 0}, {100, 50}, {100, 99}, {100, 1000}, {1000, 100000},
	} {
		b := NewCSRBuilder(tc.n)
		// PeakBytes is a function of n and the counted arcs; feed a
		// synthetic degree profile by counting m arbitrary (distinct
		// enough) pairs.
		for i := 0; i < tc.m; i++ {
			u := int32(i % tc.n)
			v := int32((i + 1 + i/tc.n) % tc.n)
			if u != v {
				b.Count(u, v)
			}
		}
		if err := b.FinishCounts(); err != nil {
			t.Fatal(err)
		}
		peak := b.PeakBytes()
		final := CSRBytes(tc.n, tc.m)
		if limit := final + final/2; peak > limit {
			t.Errorf("n=%d m=%d: peak %d bytes exceeds 1.5×CSRBytes = %d", tc.n, tc.m, peak, limit)
		}
	}
}

// TestFromCSRAliasesStorage: the deprecated FromCSR and Graph.CSR are
// identities, so a graph loaded from a file and passed through them is
// the loaded graph itself, with the rows Builder gives the same edges.
func TestFromCSRAliasesStorage(t *testing.T) {
	src := GNP(50, 0.2, rng.New(3))
	b := NewBuilder(src.N())
	for _, e := range src.Edges() {
		if err := b.AddEdge(e[1], e[0]); err != nil {
			t.Fatal(err)
		}
	}
	want := b.Build()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, src); err != nil {
		t.Fatal(err)
	}
	c, _, err := LoadCSRFile(writeTemp(t, "g.el", buf.Bytes()), "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if g := FromCSR(c); g != c || g.CSR() != c {
		t.Fatal("FromCSR or CSR is not the identity")
	}
	if !csrEqual(c, want) {
		t.Fatal("loaded rows differ from Builder output for the same edges")
	}
}

// TestCSRMaxDegree pins MaxDegree against the longest list of the
// adjacency-list reference, and at 0 for edgeless and empty graphs.
func TestCSRMaxDegree(t *testing.T) {
	g := GNP(60, 0.25, rng.New(5))
	ref := newBuilderReference(g.N())
	for _, e := range g.Edges() {
		if err := ref.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	want := 0
	for _, lst := range ref.adj {
		want = max(want, len(lst))
	}
	if got := g.MaxDegree(); got != want {
		t.Fatalf("MaxDegree = %d, reference %d", got, want)
	}
	var zero Graph
	for _, g := range []*Graph{Empty(4), &zero} {
		if got := g.MaxDegree(); got != 0 {
			t.Fatalf("%v: MaxDegree = %d, want 0", g, got)
		}
	}
}
