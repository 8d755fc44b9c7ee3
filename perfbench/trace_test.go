package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100},
		// Overlapping children count once: [10, 50).
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "b", ID: 2, Parent: 0, Start: 20, End: 50},
		// A child reaching past its parent is clipped: [90, 100).
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 120},
		// A grandchild is its parent's, not the root's.
		{Name: "d", ID: 4, Parent: 2, Start: 25, End: 35},
		// Another op's root is nobody's child.
		{Name: "op", ID: 5, Parent: -1, Start: 40, End: 60},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s #%d) = %d, want %d", spans[i].Name, i, got[i], want[i])
		}
	}
	by := selfByName(spans)
	if v := by["op"]; math.Abs(v[0]-70e-6) > 1e-15 || v[1] != 2 {
		t.Errorf("op self by name = %v ms over %v spans, want 7e-05 ms over 2", v[0], v[1])
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 7, -1)
	child := tr.begin("service.submit", 7, root)
	tr.end(child)
	open := tr.begin("service.fetch", 7, root)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot kept %d spans, want the 2 closed ones", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Op != 7 || spans[1].End < spans[1].Start {
		t.Errorf("child span %+v not nested in %+v", spans[1], spans[0])
	}
	_ = open

	var off *tracer
	if id := off.begin("op", 1, -1); id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
	off.end(0)
	if off.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
}
