package graph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteEdgeList writes g in a simple text format:
//
//	# optional comment lines
//	n <vertices>
//	<u> <v>          (one edge per line, u < v)
//
// The format round-trips through ReadEdgeList, including isolated
// vertices (carried by the n header).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
					return fmt.Errorf("write edge: %w", err)
				}
			}
		}
	}
	return bw.Flush()
}

// MaxEdgeListVertices caps the vertex count the graph file readers
// accept. The header is attacker-controlled in any setting where graphs
// arrive over the network, and the count drives O(n) allocations (row
// offsets and placement cursors, 12 bytes per vertex) before a single
// edge is read. 2^22 vertices is far beyond what the simulator can
// process in reasonable time anyway; construct larger graphs
// programmatically.
const MaxEdgeListVertices = 1 << 22

// ReadEdgeList parses a text edge list: the format WriteEdgeList emits,
// in the grammar LoadCSRFile reads as FormatEdgeList. Lines starting
// with '#' and blank lines are ignored. The header is "n <count>" or
// "n <count> m <edges>"; a declared m must equal the number of edge
// lines. Each edge line is two vertex ids separated by spaces or tabs.
// Out-of-range endpoints, self-loops and an edge listed twice (in
// either orientation) are errors naming their line, as are headers
// declaring more than MaxEdgeListVertices vertices.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := newGraphScanner(r)
	n, declaredM, haveM, lineNo, err := readEdgeListHeader(sc, 0)
	if err != nil {
		return nil, err
	}
	var edges, lines []int32 // edge i is {edges[2i], edges[2i+1]}, read on line lines[i]
	count, err := scanEdgeListBody(sc, n, lineNo, func(u, v int32, lineNo int) error {
		edges = append(edges, u, v)
		lines = append(lines, int32(lineNo))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if haveM && count != declaredM {
		return nil, fmt.Errorf("edge list: header declares m=%d but the list contains %d edge lines", declaredM, count)
	}
	g := finishBuild(n, edges)
	if int64(g.M()) != count {
		return nil, duplicateEdge(g, func(visit func(u, v int32, lineNo int) error) error {
			for i, line := range lines {
				if err := visit(edges[2*i], edges[2*i+1], int(line)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return g, nil
}
