// Command misgen generates graphs in the textual edge-list format
// understood by misrun and misnode.
//
// Usage:
//
//	misgen -type gnp -n 500 -p 0.5 -seed 7 -out net.edges
//	misgen -type grid -rows 12 -cols 12
//	misgen -type ba -n 1000 -m 3
//	misgen -type ws -n 500 -k 6 -beta 0.1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "misgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("misgen", flag.ContinueOnError)
	var (
		kind   = fs.String("type", "gnp", "family: gnp, grid, torus, complete, cliques, unitdisk, ba, ws, tree, path, cycle, star")
		n      = fs.Int("n", 100, "node count")
		p      = fs.Float64("p", 0.5, "edge probability (gnp)")
		rows   = fs.Int("rows", 10, "grid/torus rows")
		cols   = fs.Int("cols", 10, "grid/torus columns")
		radius = fs.Float64("radius", 0.1, "connection radius (unitdisk)")
		m      = fs.Int("m", 3, "attachment edges per node (ba)")
		k      = fs.Int("k", 4, "ring neighbours (ws, even)")
		beta   = fs.Float64("beta", 0.1, "rewiring probability (ws)")
		seed   = fs.Uint64("seed", 1, "random seed")
		out    = fs.String("out", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*p >= 0 && *p <= 1) {
		return fmt.Errorf("-p %v is not an edge probability in [0, 1]", *p)
	}

	src := rng.New(*seed)
	var (
		g   *graph.Graph
		err error
	)
	switch *kind {
	case "gnp":
		g = graph.GNP(*n, *p, src)
	case "grid":
		g = graph.Grid(*rows, *cols)
	case "torus":
		g = graph.Torus(*rows, *cols)
	case "complete":
		g = graph.Complete(*n)
	case "cliques":
		g = graph.CliqueFamily(*n)
	case "unitdisk":
		g = graph.UnitDisk(*n, *radius, src)
	case "ba":
		g, err = graph.BarabasiAlbert(*n, *m, src)
	case "ws":
		g, err = graph.WattsStrogatz(*n, *k, *beta, src)
	case "tree":
		g = graph.RandomTree(*n, src)
	case "path":
		g = graph.Path(*n)
	case "cycle":
		g = graph.Cycle(*n)
	case "star":
		g = graph.Star(*n)
	default:
		return fmt.Errorf("unknown graph type %q", *kind)
	}
	if err != nil {
		return err
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("create output file: %w", err)
		}
		defer func() { _ = f.Close() }()
		w = f
	}
	if _, err := fmt.Fprintf(w, "# %s n=%d m=%d seed=%d\n", *kind, g.N(), g.M(), *seed); err != nil {
		return fmt.Errorf("write header comment: %w", err)
	}
	return graph.WriteEdgeList(w, g)
}
