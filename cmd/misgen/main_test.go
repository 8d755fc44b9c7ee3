package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beepmis/internal/graph"
)

func TestGenerateAllTypes(t *testing.T) {
	types := [][]string{
		{"-type", "gnp", "-n", "30", "-p", "0.3"},
		{"-type", "grid", "-rows", "4", "-cols", "5"},
		{"-type", "torus", "-rows", "4", "-cols", "4"},
		{"-type", "complete", "-n", "8"},
		{"-type", "cliques", "-n", "100"},
		{"-type", "unitdisk", "-n", "40", "-radius", "0.2"},
		{"-type", "ba", "-n", "50", "-m", "2"},
		{"-type", "ws", "-n", "40", "-k", "4", "-beta", "0.2"},
		{"-type", "tree", "-n", "25"},
		{"-type", "path", "-n", "10"},
		{"-type", "cycle", "-n", "10"},
		{"-type", "star", "-n", "10"},
	}
	for _, args := range types {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		g, err := graph.ReadEdgeList(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("%v: generated output does not parse: %v", args, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

func TestGenerateToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := run([]string{"-type", "path", "-n", "5", "-out", path}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadEdgeList(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("g = %v", g)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-type", "gnp", "-n", "20", "-seed", "9"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-type", "gnp", "-n", "20", "-seed", "9"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different graphs")
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := [][]string{
		{"-type", "nope"},
		{"-type", "ws", "-n", "10", "-k", "3"}, // odd k
		{"-type", "ba", "-n", "10", "-m", "0"},
		{"-bad-flag"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestRejectsBadEdgeProbability: a -p that is NaN, infinite or outside
// [0, 1] is a usage error, not a silently empty or garbage graph.
func TestRejectsBadEdgeProbability(t *testing.T) {
	for _, p := range []string{"NaN", "-0.1", "1.5", "Inf", "-Inf"} {
		var out bytes.Buffer
		err := run([]string{"-type", "gnp", "-n", "20", "-p", p}, &out)
		if err == nil || !strings.Contains(err.Error(), "-p") {
			t.Errorf("-p %s: err = %v, want a -p usage error", p, err)
		}
		if out.Len() != 0 {
			t.Errorf("-p %s: wrote output %q", p, out.String())
		}
	}
}
