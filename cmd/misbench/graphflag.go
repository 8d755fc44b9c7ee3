package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"beepmis/internal/graph"
	"beepmis/internal/rng"
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

// buildBenchWorkload materialises the bench graph from the -graph /
// -graphfile / -benchn / -benchp flags, timing construction. Exactly
// one of spec and file may be set; with neither, the default G(n,p)
// workload is built from -benchn and -benchp.
func buildBenchWorkload(spec, file string, n int, p float64, seed uint64) (*benchWorkload, error) {
	if spec != "" && file != "" {
		return nil, fmt.Errorf("-graph and -graphfile are mutually exclusive")
	}
	switch {
	case file != "":
		start := time.Now()
		g, digest, err := graph.LoadCSRFile(file, graph.DetectGraphFormat(file), 0)
		if err != nil {
			return nil, err
		}
		w := newGraphWorkload(g, time.Since(start), "file:"+baseName(file))
		w.digest = digest
		return w, nil
	case spec != "":
		return buildGraphSpecWorkload(spec, seed)
	default:
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
}

// buildGraphSpecWorkload parses a -graph value of the form
// "family:key=value,key=value" and builds the graph. Families: rmat
// (n, edges, a, b, c) and configmodel (n, edges, gamma), both streamed
// through graph.CSRBuilder, and gnp (n, p — graph.GNP, the sampler the
// default bench uses, labelled by the spec).
func buildGraphSpecWorkload(spec string, seed uint64) (*benchWorkload, error) {
	family, rest, _ := strings.Cut(spec, ":")
	params := map[string]string{}
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("-graph parameter %q is not key=value", kv)
			}
			params[k] = v
		}
	}
	getInt := func(key string) (int64, error) {
		v, ok := params[key]
		if !ok {
			return 0, fmt.Errorf("-graph %s needs %s= (got %q)", family, key, spec)
		}
		delete(params, key)
		i, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("-graph %s: %s=%q is not an integer", family, key, v)
		}
		return i, nil
	}
	getFloat := func(key string, def float64) (float64, error) {
		v, ok := params[key]
		if !ok {
			return def, nil
		}
		delete(params, key)
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("-graph %s: %s=%q is not a number", family, key, v)
		}
		return f, nil
	}
	var (
		g     *graph.Graph
		err   error
		start time.Time
	)
	switch family {
	case "rmat":
		n, errN := getInt("n")
		edges, errM := getInt("edges")
		if errN != nil || errM != nil {
			return nil, firstErr(errN, errM)
		}
		a, errA := getFloat("a", 0.57)
		b, errB := getFloat("b", 0.19)
		cc, errC := getFloat("c", 0.19)
		if err := firstErr(errA, errB, errC); err != nil {
			return nil, err
		}
		if err := rejectUnknownParams(family, params); err != nil {
			return nil, err
		}
		start = time.Now()
		g, err = graph.RMATCSR(int(n), edges, a, b, cc, 1-a-b-cc, rng.New(seed), 0)
	case "configmodel":
		n, errN := getInt("n")
		edges, errM := getInt("edges")
		if errN != nil || errM != nil {
			return nil, firstErr(errN, errM)
		}
		gamma, errG := getFloat("gamma", 2.5)
		if errG != nil {
			return nil, errG
		}
		if err := rejectUnknownParams(family, params); err != nil {
			return nil, err
		}
		start = time.Now()
		g, err = graph.ConfigModelCSR(int(n), edges, gamma, rng.New(seed), 0)
	case "gnp":
		n, errN := getInt("n")
		if errN != nil {
			return nil, errN
		}
		if _, ok := params["p"]; !ok {
			return nil, fmt.Errorf("-graph gnp needs p= (got %q)", spec)
		}
		p, errP := getFloat("p", 0)
		if errP != nil {
			return nil, errP
		}
		if n < 0 {
			return nil, fmt.Errorf("-graph gnp: n=%d is negative", n)
		}
		if !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("-graph gnp: p=%v is not an edge probability in [0, 1]", p)
		}
		if err := rejectUnknownParams(family, params); err != nil {
			return nil, err
		}
		start = time.Now()
		g = graph.GNP(int(n), p, rng.New(seed))
	default:
		return nil, fmt.Errorf("-graph family %q unknown (want rmat, configmodel, or gnp)", family)
	}
	if err != nil {
		return nil, err
	}
	return newGraphWorkload(g, time.Since(start), spec), nil
}

func newGraphWorkload(g *graph.Graph, build time.Duration, label string) *benchWorkload {
	return &benchWorkload{
		label:   label,
		g:       g,
		buildNs: build.Nanoseconds(),
		edges:   int64(g.M()),
	}
}

func rejectUnknownParams(family string, params map[string]string) error {
	for k := range params {
		return fmt.Errorf("-graph %s does not take parameter %q", family, k)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
