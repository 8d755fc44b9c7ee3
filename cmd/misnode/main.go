// Command misnode runs the beeping MIS protocol as a real distributed
// system over TCP: one coordinator process (which knows the topology and
// relays "heard a beep" bits, standing in for the shared radio medium)
// and one or more node processes, each hosting a set of vertices over
// one connection.
//
// Usage:
//
//	# Terminal 1 — the coordinator, listening for 64 vertices:
//	misnode -mode coord -addr 127.0.0.1:7788 -graph grid:rows=8,cols=8
//
//	# Terminal 2..k — nodes, each hosting a range of vertices:
//	misnode -mode node -addr 127.0.0.1:7788 -vertices 0-31  -seed 42
//	misnode -mode node -addr 127.0.0.1:7788 -vertices 32-63 -seed 42
//
// -vertices accepts a single id, an inclusive lo-hi range, or a
// comma-separated list of both (e.g. "0-15,32,40-47"). Malformed input —
// reversed ranges like "31-0", empty segments, ids claimed twice —
// fails before anything dials the coordinator; ranges that overlap
// *across* node processes are caught by the coordinator at handshake
// time, which names the doubly-claimed vertex in its rejection.
//
// All node processes must use the same -seed: each vertex derives its
// private randomness stream from (seed, vertex id), which also makes the
// distributed run reproduce `misrun -engine sim` exactly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
	"beepmis/internal/scenario"
	"beepmis/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "misnode:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("misnode", flag.ContinueOnError)
	var (
		mode      = fs.String("mode", "", "coord or node")
		addr      = fs.String("addr", "127.0.0.1:7788", "coordinator address")
		graphFlag = fs.String("graph", "grid:rows=8,cols=8", "coord: graph as family:key=value,… over a scenario graph block's keys (e.g. gnp:n=64,p=0.5, file:path=net.el); a random family draws from -seed unless seed= is given")
		vertices  = fs.String("vertices", "", "node: vertex ids — a single id, an inclusive lo-hi range, or a comma-separated list of both (e.g. 0-15,32,40-47)")
		seed      = fs.Uint64("seed", 1, "node: master seed shared by all node processes; coord: seed of a random graph family")
		algo      = fs.String("algo", "feedback", "node: beeping algorithm (feedback, globalsweep, afek, fixed)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *mode {
	case "coord":
		spec, err := scenario.ParseGraph(*graphFlag)
		if err != nil {
			return err
		}
		g, err := spec.Build(*seed)
		if err != nil {
			return err
		}
		return runCoord(stdout, g, *addr)
	case "node":
		ids, err := parseVertices(*vertices)
		if err != nil {
			return err
		}
		return runNodes(stdout, *addr, ids, *seed, *algo)
	default:
		return fmt.Errorf("missing or unknown -mode %q (want coord or node)", *mode)
	}
}

func runCoord(stdout io.Writer, g *graph.Graph, addr string) error {
	coord, err := transport.NewCoordinator(g, addr)
	if err != nil {
		return err
	}
	defer func() { _ = coord.Close() }()
	return runCoordServe(stdout, coord, g)
}

// runCoordServe drives an already-listening coordinator to completion;
// split from runCoord so tests can bind to an ephemeral port first.
func runCoordServe(stdout io.Writer, coord *transport.Coordinator, g *graph.Graph) error {
	fmt.Fprintf(stdout, "coordinator: graph n=%d m=%d, listening on %s, waiting for %d vertices\n",
		g.N(), g.M(), coord.Addr(), g.N())
	res, err := coord.Serve(transport.CoordinatorOptions{})
	if err != nil {
		return err
	}
	if err := graph.VerifyMIS(g, res.InMIS); err != nil {
		return fmt.Errorf("distributed result verification: %w", err)
	}
	fmt.Fprintf(stdout, "completed in %d rounds\n", res.Rounds)
	fmt.Fprintf(stdout, "mis (size %d): %v\n", len(graph.SetToList(res.InMIS)), graph.SetToList(res.InMIS))
	fmt.Fprintln(stdout, "verified: maximal independent set ✓")
	return nil
}

func runNodes(stdout io.Writer, addr string, ids []int, seed uint64, algo string) error {
	factory, err := mis.NewFactory(mis.Spec{Name: algo})
	if err != nil {
		return err
	}
	res, err := transport.RunNode(addr, ids, factory, rng.New(seed), transport.NodeOptions{})
	if err != nil {
		return err
	}
	for i, v := range ids {
		fmt.Fprintf(stdout, "vertex %d: state=%s beeps=%d rounds=%d\n", v, res.States[i], res.Beeps[i], res.Rounds)
	}
	return nil
}

// parseVertices expands the -vertices flag into the sorted vertex ids
// this process hosts. It accepts a comma-separated list of single ids
// and inclusive lo-hi ranges, and rejects — before anything dials the
// coordinator — every malformed shape that used to surface as a
// confusing mid-handshake failure: empty flags and empty list segments,
// non-numeric ids, negative ids, reversed ranges ("31-0"), and ids
// claimed twice by overlapping segments of the same flag.
func parseVertices(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("node mode requires -vertices (an id, a lo-hi range, or a comma-separated list)")
	}
	seen := make(map[int]string)
	var ids []int
	for _, seg := range strings.Split(s, ",") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			return nil, fmt.Errorf("-vertices %q has an empty segment (stray comma?)", s)
		}
		lo, hi, err := parseSegment(seg)
		if err != nil {
			return nil, err
		}
		// Bound before expanding: a typo like 0-2000000000 must print
		// this error, not allocate gigabytes trying to.
		if len(ids)+(hi-lo+1) > transport.MaxClaim {
			return nil, fmt.Errorf("-vertices %q expands to more than %d vertices; split across node processes", s, transport.MaxClaim)
		}
		for v := lo; v <= hi; v++ {
			if prev, dup := seen[v]; dup {
				return nil, fmt.Errorf("-vertices %q claims vertex %d twice (segments %q and %q overlap)", s, v, prev, seg)
			}
			seen[v] = seg
			ids = append(ids, v)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// parseSegment parses one -vertices list segment: "12" or "3-17".
func parseSegment(seg string) (lo, hi int, err error) {
	if i := strings.IndexByte(seg, '-'); i >= 0 {
		lo, err = strconv.Atoi(seg[:i])
		if err != nil {
			return 0, 0, fmt.Errorf("bad range %q: %w (want lo-hi, e.g. 0-31)", seg, err)
		}
		hi, err = strconv.Atoi(seg[i+1:])
		if err != nil {
			return 0, 0, fmt.Errorf("bad range %q: %w (want lo-hi, e.g. 0-31)", seg, err)
		}
		if lo < 0 || hi < 0 {
			return 0, 0, fmt.Errorf("range %q has a negative endpoint (vertex ids start at 0)", seg)
		}
		if hi < lo {
			return 0, 0, fmt.Errorf("range %q is reversed: %d > %d (want lo-hi with lo ≤ hi)", seg, lo, hi)
		}
		return lo, hi, nil
	}
	v, err := strconv.Atoi(seg)
	if err != nil {
		return 0, 0, fmt.Errorf("bad vertex %q: %w", seg, err)
	}
	if v < 0 {
		return 0, 0, fmt.Errorf("vertex %q is negative (vertex ids start at 0)", seg)
	}
	return v, v, nil
}
