package main

import (
	"fmt"
	"strings"
	"time"

	"beepmis/internal/graph"
	"beepmis/internal/rng"
	"beepmis/internal/scenario"
)

// benchWorkload is the graph a -bench invocation measures, plus the
// construction metadata stamped onto every record: how long the graph
// took to build, its final edge count, and — for file workloads — the
// content digest that identifies the bytes.
type benchWorkload struct {
	// label names non-default workloads in records and regression-gate
	// keys; "" means the classic G(n,p) bench.
	label   string
	g       *graph.Graph
	digest  string
	buildNs int64
	edges   int64
}

// buildBenchWorkload materialises the bench graph, timing construction:
// the -graph spec when one is given, built through the scenario
// registry, and otherwise the default G(n,p) workload from -benchn and
// -benchp.
func buildBenchWorkload(spec string, n int, p float64, seed uint64) (*benchWorkload, error) {
	if spec == "" {
		if n <= 0 {
			return nil, fmt.Errorf("bench needs positive -benchn (got %d)", n)
		}
		if !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("-benchp %v is not an edge probability in [0, 1]", p)
		}
		start := time.Now()
		g := graph.GNP(n, p, rng.New(seed))
		return &benchWorkload{
			g:       g,
			buildNs: time.Since(start).Nanoseconds(),
			edges:   int64(g.M()),
		}, nil
	}
	gs, err := scenario.ParseGraph(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	g, err := gs.Build(seed)
	if err != nil {
		return nil, err
	}
	w := &benchWorkload{
		label:   spec,
		g:       g,
		digest:  gs.Digest,
		buildNs: time.Since(start).Nanoseconds(),
		edges:   int64(g.M()),
	}
	if gs.Family == "file" {
		w.label = "file:" + baseName(gs.Path)
	}
	return w, nil
}

// baseName is filepath.Base without the import: labels must be stable
// across machines, so only the file's name (never its directory)
// enters the record.
func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
