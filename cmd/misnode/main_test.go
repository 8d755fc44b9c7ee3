package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"beepmis/internal/graph"
	"beepmis/internal/rng"
	"beepmis/internal/transport"
)

func TestParseVertices(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		err  string // substring of the error when want is nil
	}{
		{"5", []int{5}, ""},
		{"0-15", seq(0, 15), ""},
		{"3-3", []int{3}, ""},
		{"0-3,8,5-6", []int{0, 1, 2, 3, 5, 6, 8}, ""},
		{" 2 , 4-5 ", []int{2, 4, 5}, ""},
		{"", nil, "requires -vertices"},
		{"31-0", nil, "reversed"},
		{"5-2", nil, "reversed"},
		{"0-3,,5", nil, "empty segment"},
		{"0-3,", nil, "empty segment"},
		{"0-3,2-5", nil, "overlap"},
		{"4,4", nil, "twice"},
		{"0-3,3", nil, "twice"},
		{"a", nil, "bad vertex"},
		{"1-b", nil, "bad range"},
		{"x-2", nil, "bad range"},
		{"-4", nil, "bad range"}, // leading '-' parses as a range with an empty lo
	}
	for _, c := range cases {
		got, err := parseVertices(c.in)
		if c.want != nil {
			if err != nil {
				t.Errorf("parseVertices(%q): %v", c.in, err)
				continue
			}
			if len(got) != len(c.want) {
				t.Errorf("parseVertices(%q) = %v, want %v", c.in, got, c.want)
				continue
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("parseVertices(%q) = %v, want %v", c.in, got, c.want)
					break
				}
			}
			continue
		}
		if err == nil {
			t.Errorf("parseVertices(%q) accepted: %v", c.in, got)
		} else if !strings.Contains(err.Error(), c.err) {
			t.Errorf("parseVertices(%q) error %q does not mention %q", c.in, err, c.err)
		}
	}
}

// seq returns the ints lo..hi inclusive.
func seq(lo, hi int) []int {
	ids := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		ids = append(ids, v)
	}
	return ids
}

// TestBuildGraph drives -graph through coord mode: each graph the
// coordinator serves is the one the flag names, a random family drawn
// from -seed.
func TestBuildGraph(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := os.WriteFile(path, []byte("n 2\n0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	gnpServed := func(seed uint64) string {
		return fmt.Sprintf("graph n=60 m=%d,", graph.GNP(60, 0.5, rng.New(seed)).M())
	}
	if gnpServed(1) == gnpServed(5) {
		t.Fatal("G(60, 1/2) has the same edge count at seeds 1 and 5; pick seeds that tell the graphs apart")
	}
	for _, c := range []struct{ graph, seed, vertices, want string }{
		{"grid:rows=3,cols=4", "1", "0-11", "graph n=12 "},
		{"gnp:n=60,p=0.5", "1", "0-59", gnpServed(1)},
		{"gnp:n=60,p=0.5", "5", "0-59", gnpServed(5)},
		{"file:path=" + path, "1", "0-1", "graph n=2 m=1,"},
	} {
		if out, _ := coordWithNodes(t, c.graph, c.vertices, "-seed", c.seed); !strings.Contains(out, c.want) {
			t.Errorf("-graph %s -seed %s: coordinator output lacks %q:\n%s", c.graph, c.seed, c.want, out)
		}
	}
	for _, bad := range []string{"nope", "file"} {
		if err := run([]string{"-mode", "coord", "-addr", "127.0.0.1:0", "-graph", bad}, &bytes.Buffer{}); err == nil {
			t.Errorf("-graph %s accepted", bad)
		}
	}
}

func TestRunModeErrors(t *testing.T) {
	cases := [][]string{
		{},                // missing mode
		{"-mode", "nope"}, // unknown mode
		{"-mode", "node"}, // missing vertices
		{"-mode", "node", "-vertices", "0", "-algo", "nope"},
		{"-bad-flag"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestCoordAndNodesEndToEnd drives the two roles' inner functions over
// loopback TCP within one process (the separate-process path is the same
// code reached through run()).
func TestCoordAndNodesEndToEnd(t *testing.T) {
	g := graph.Grid(3, 3)
	coord, err := transport.NewCoordinator(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()

	var (
		wg      sync.WaitGroup
		nodeOut bytes.Buffer
		nodeErr error
		mu      sync.Mutex
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		err := runNodes(&buf, coord.Addr(), seq(0, g.N()-1), 42, "feedback")
		mu.Lock()
		defer mu.Unlock()
		nodeOut = buf
		nodeErr = err
	}()

	var coordOut bytes.Buffer
	if err := runCoordServe(&coordOut, coord, g); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if nodeErr != nil {
		t.Fatalf("nodes: %v", nodeErr)
	}
	if !strings.Contains(coordOut.String(), "verified: maximal independent set") {
		t.Fatalf("coordinator output:\n%s", coordOut.String())
	}
	if !strings.Contains(nodeOut.String(), "vertex 0:") {
		t.Fatalf("node output:\n%s", nodeOut.String())
	}
}

// freePort reserves an ephemeral port and releases it for the test to
// reuse; the race window is negligible for a loopback test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// coordWithNodes runs misnode -mode coord on graphFlag, with any
// further coordArgs, and one -mode node process hosting vertices, both
// through run, and returns their outputs.
func coordWithNodes(t *testing.T, graphFlag, vertices string, coordArgs ...string) (coord, node string) {
	t.Helper()
	addr := freePort(t)
	coordOut := &bytes.Buffer{}
	coordErr := make(chan error, 1)
	args := append([]string{"-mode", "coord", "-addr", addr, "-graph", graphFlag}, coordArgs...)
	go func() {
		coordErr <- run(args, coordOut)
	}()
	// Dial until the coordinator is listening (it may not be up yet).
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			_ = conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never started listening")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var nodeOut bytes.Buffer
	if err := run([]string{"-mode", "node", "-addr", addr, "-vertices", vertices, "-seed", "3"}, &nodeOut); err != nil {
		t.Fatalf("node mode: %v", err)
	}
	if err := <-coordErr; err != nil {
		t.Fatalf("coord mode: %v\n%s", err, coordOut.String())
	}
	return coordOut.String(), nodeOut.String()
}

// TestRunCoordAndNodeModes exercises the exact CLI paths (run with
// -mode coord / -mode node) end to end.
func TestRunCoordAndNodeModes(t *testing.T) {
	coordOut, nodeOut := coordWithNodes(t, "grid:rows=3,cols=3", "0-4,7,5-6,8")
	if !strings.Contains(coordOut, "verified: maximal independent set") {
		t.Fatalf("coordinator output:\n%s", coordOut)
	}
	if !strings.Contains(nodeOut, "vertex 8:") {
		t.Fatalf("node output:\n%s", nodeOut)
	}
}

func TestRunCoordBadAddr(t *testing.T) {
	if err := run([]string{"-mode", "coord", "-addr", "256.0.0.1:bad"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad address accepted")
	}
}

// TestRejectsBadGraph: a -graph the scenario registry rejects fails
// with an error naming the parameter, before the coordinator writes
// anything or listens — the address is taken, so listening would fail
// differently.
func TestRejectsBadGraph(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
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
		err := run([]string{"-mode", "coord", "-addr", ln.Addr().String(), "-graph", c.graph}, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-graph %s: err = %v, want one naming %q", c.graph, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("-graph %s: wrote output %q", c.graph, out.String())
		}
	}
}
