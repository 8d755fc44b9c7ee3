package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"beepmis/internal/graph"
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

func TestBuildGraph(t *testing.T) {
	g, err := buildGraph("grid", 0, 0, 3, 4, "", 1)
	if err != nil || g.N() != 12 {
		t.Fatalf("grid: %v %v", g, err)
	}
	g, err = buildGraph("gnp", 20, 0.5, 0, 0, "", 1)
	if err != nil || g.N() != 20 {
		t.Fatalf("gnp: %v %v", g, err)
	}
	if _, err := buildGraph("nope", 0, 0, 0, 0, "", 1); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := buildGraph("file", 0, 0, 0, 0, "", 1); err == nil {
		t.Fatal("file without -in accepted")
	}
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := os.WriteFile(path, []byte("n 2\n0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err = buildGraph("file", 0, 0, 0, 0, path, 1)
	if err != nil || g.M() != 1 {
		t.Fatalf("file: %v %v", g, err)
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

// TestRunCoordAndNodeModes exercises the exact CLI paths (run with
// -mode coord / -mode node) end to end.
func TestRunCoordAndNodeModes(t *testing.T) {
	addr := freePort(t)
	coordOut := &bytes.Buffer{}
	coordErr := make(chan error, 1)
	go func() {
		coordErr <- run([]string{"-mode", "coord", "-addr", addr, "-graph", "grid", "-rows", "3", "-cols", "3"}, coordOut)
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
	if err := run([]string{"-mode", "node", "-addr", addr, "-vertices", "0-4,7,5-6,8", "-seed", "3"}, &nodeOut); err != nil {
		t.Fatalf("node mode: %v", err)
	}
	if err := <-coordErr; err != nil {
		t.Fatalf("coord mode: %v\n%s", err, coordOut.String())
	}
	if !strings.Contains(coordOut.String(), "verified: maximal independent set") {
		t.Fatalf("coordinator output:\n%s", coordOut.String())
	}
	if !strings.Contains(nodeOut.String(), "vertex 8:") {
		t.Fatalf("node output:\n%s", nodeOut.String())
	}
}

func TestRunCoordBadAddr(t *testing.T) {
	if err := run([]string{"-mode", "coord", "-addr", "256.0.0.1:bad"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad address accepted")
	}
}

// TestRejectsBadEdgeProbability: a -p that is NaN, infinite or outside
// [0, 1] is a usage error, not a silently empty or garbage graph.
func TestRejectsBadEdgeProbability(t *testing.T) {
	for _, p := range []string{"NaN", "-0.1", "1.5", "Inf", "-Inf"} {
		var out bytes.Buffer
		err := run([]string{"-mode", "coord", "-graph", "gnp", "-n", "20", "-addr", "127.0.0.1:0", "-p", p}, &out)
		if err == nil || !strings.Contains(err.Error(), "-p") {
			t.Errorf("-p %s: err = %v, want a -p usage error", p, err)
		}
		if out.Len() != 0 {
			t.Errorf("-p %s: wrote output %q", p, out.String())
		}
	}
}
