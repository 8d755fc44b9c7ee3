package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAlgosList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-algos"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"feedback", "globalsweep", "luby-permutation", "greedy"} {
		if !strings.Contains(out.String(), a) {
			t.Fatalf("algos output missing %q:\n%s", a, out.String())
		}
	}
}

func TestRunGNPFeedback(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-graph", "gnp:n=80,p=0.5", "-algo", "feedback", "-seed", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mis size:", "rounds:", "verified: maximal independent set"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunAllGraphKinds(t *testing.T) {
	kinds := [][]string{
		{"-graph", "gnp:n=40,p=0.5"},
		{"-graph", "grid:rows=5,cols=5"},
		{"-graph", "complete:n=15"},
		{"-graph", "cliques:n=100"},
		{"-graph", "unitdisk:n=50,radius=0.2"},
	}
	for _, args := range kinds {
		var out bytes.Buffer
		if err := run(append(args, "-algo", "feedback"), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

func TestRunConcurrentEngine(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-graph", "gnp:n=30,p=0.5", "-engine", "concurrent", "-show-set"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "set: [") {
		t.Fatalf("show-set missing:\n%s", out.String())
	}
}

// TestRunEnginePins drives every -engine spelling through the CLI: each
// run must verify, and the per-seed results must agree with the
// simulator's default auto selection (the engine-equivalence contract
// through the -engine flag, the in-process message-passing run
// included).
func TestRunEnginePins(t *testing.T) {
	outputs := map[string]string{}
	for _, engine := range []string{"sim", "auto", "scalar", "bitset", "columnar", "sparse", "concurrent"} {
		var out bytes.Buffer
		if err := run([]string{"-graph", "gnp:n=60,p=0.5", "-algo", "feedback", "-seed", "5", "-engine", engine}, &out); err != nil {
			t.Fatalf("-engine %s: %v", engine, err)
		}
		if !strings.Contains(out.String(), "verified: maximal independent set") {
			t.Fatalf("-engine %s did not verify:\n%s", engine, out.String())
		}
		// Compare from the results onwards — the header echoes the
		// engine name.
		i := strings.Index(out.String(), "mis size:")
		if i < 0 {
			t.Fatalf("-engine %s output missing results:\n%s", engine, out.String())
		}
		outputs[engine] = out.String()[i:]
	}
	for engine, got := range outputs {
		if got != outputs["sim"] {
			t.Fatalf("-engine %s output diverged from sim:\n%s\nvs\n%s", engine, got, outputs["sim"])
		}
	}
}

func TestRunFileGraph(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := os.WriteFile(path, []byte("n 3\n0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-graph", "file:path=" + path, "-algo", "greedy"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "n=3 m=2") {
		t.Fatalf("file graph not loaded:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-graph", "nope"},
		{"-graph", "file"}, // missing path=
		{"-graph", "file:path=/definitely/missing/file"},
		{"-engine", "nope"},
		{"-algo", "nope"},
		{"-bad-flag"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestRunLubyShowsBits(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-graph", "gnp:n=40,p=0.5", "-algo", "luby-permutation"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "message bits:") {
		t.Fatalf("luby output missing bits:\n%s", out.String())
	}
}

// TestRejectsBadGraph: a -graph the scenario registry rejects fails
// with an error naming the parameter, before any output.
func TestRejectsBadGraph(t *testing.T) {
	for _, c := range []struct{ graph, want string }{
		{"gnp:n=50", "needs p="},
		{"gnp:n=-5,p=0.5", "n -5 < 1"},
		{"grid:rows=0,cols=3", "rows and cols"},
		{"unitdisk:n=50,radius=-1", "radius -1"},
		{"cycle:n=2", "n ≥ 3"},
		{"gnp:n=20,p=1.5", "p 1.5"},
		{"gnp:n=20,p=NaN", "GraphSpec.p"},
	} {
		var out bytes.Buffer
		err := run([]string{"-graph", c.graph}, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-graph %s: err = %v, want one naming %q", c.graph, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("-graph %s: wrote output %q", c.graph, out.String())
		}
	}
}
