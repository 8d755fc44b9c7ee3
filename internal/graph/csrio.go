package graph

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// This file holds the streamed file loaders: edge-list (text and
// binary) and METIS readers that construct a Graph directly through
// CSRBuilder. The file IS the edge buffer — each loader reads it twice
// (count pass, place pass) and never buffers the edge list, so peak
// memory during ingestion is the CSRBuilder bound (~1.2× the final
// rows) plus O(n) parse metadata, regardless of file size. Pass one
// also folds every byte through SHA-256; the returned digest is what
// the scenario layer mixes into the content hash so the misd result
// cache stays sound for file-referenced graphs (same spec + different
// file bytes ⇒ different hash).
//
// All loaders validate as they parse and return errors naming the
// offending line (or entry index, for the binary format): malformed
// headers, out-of-range endpoints, self-loops, and duplicate edges are
// errors, never panics and never silent fixes — a file is a claim about
// a graph, and a loader that "repairs" it would let a corrupted file
// alias a healthy digest.

// Graph file formats accepted by LoadCSRFile.
const (
	FormatEdgeList       = "edgelist" // text: "n <count> [m <edges>]" header, "u v" lines
	FormatBinaryEdgeList = "edgelist-binary"
	FormatMETIS          = "metis"
)

// DetectGraphFormat infers a graph file's format from its extension:
// .bel → binary edge list; .graph/.metis → METIS; everything else
// (.el/.edges/.txt/…) → text edge list.
func DetectGraphFormat(path string) string {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".bel":
		return FormatBinaryEdgeList
	case ".graph", ".metis":
		return FormatMETIS
	default:
		return FormatEdgeList
	}
}

// PeekInfo is a graph file's header summary, read without scanning the
// body — what scenario validation needs to admit or reject a
// file-referenced unit before any real I/O or allocation happens.
type PeekInfo struct {
	Format string
	N      int
	Edges  int64 // edge count, or an upper bound when !EdgesExact
	// EdgesExact is false only for text edge lists without the optional
	// "m <edges>" header field, where the bound is fileSize/4 (the
	// shortest possible edge line, "0 1\n", is 4 bytes). The bound is
	// conservative in the safe direction for memory admission.
	EdgesExact bool
}

// PeekGraphFile reads just enough of a graph file to report its vertex
// count and (an upper bound on) its edge count. format "" means
// DetectGraphFormat(path).
func PeekGraphFile(path, format string) (PeekInfo, error) {
	if format == "" {
		format = DetectGraphFormat(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return PeekInfo{}, err
	}
	defer f.Close()
	switch format {
	case FormatEdgeList:
		st, err := f.Stat()
		if err != nil {
			return PeekInfo{}, err
		}
		n, m, exact, _, err := readEdgeListHeader(bufio.NewScanner(f), 0)
		if err != nil {
			return PeekInfo{}, fmt.Errorf("%s: %w", path, err)
		}
		if !exact {
			m = st.Size() / 4
		}
		return PeekInfo{Format: format, N: n, Edges: m, EdgesExact: exact}, nil
	case FormatBinaryEdgeList:
		n, m, err := readBinaryHeader(f)
		if err != nil {
			return PeekInfo{}, fmt.Errorf("%s: %w", path, err)
		}
		return PeekInfo{Format: format, N: n, Edges: m, EdgesExact: true}, nil
	case FormatMETIS:
		sc := newGraphScanner(f)
		n, m, _, err := readMETISHeader(sc)
		if err != nil {
			return PeekInfo{}, fmt.Errorf("%s: %w", path, err)
		}
		return PeekInfo{Format: format, N: n, Edges: m, EdgesExact: true}, nil
	default:
		return PeekInfo{}, fmt.Errorf("graph: unknown graph file format %q", format)
	}
}

// LoadCSRFile streams the graph file at path into a Graph, returning
// the Graph and the hex SHA-256 digest of the file's bytes. format ""
// means DetectGraphFormat(path); workers bounds the builder's
// finalisation fan-out (≤0 means GOMAXPROCS). The result is identical
// for any worker count.
func LoadCSRFile(path, format string, workers int) (*Graph, string, error) {
	if format == "" {
		format = DetectGraphFormat(path)
	}
	switch format {
	case FormatEdgeList:
		return loadEdgeListCSR(path, workers)
	case FormatBinaryEdgeList:
		return loadBinaryEdgeListCSR(path, workers)
	case FormatMETIS:
		return loadMETISCSR(path, workers)
	default:
		return nil, "", fmt.Errorf("graph: unknown graph file format %q", format)
	}
}

// newGraphScanner returns a line scanner sized for adjacency rows:
// METIS lines hold whole neighbour lists, which blow through the
// default 64 KiB token limit on dense vertices.
func newGraphScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return sc
}

// --- text edge list ---------------------------------------------------

// readEdgeListHeader consumes comment/blank lines and parses the header
// "n <count>" or "n <count> m <edges>", returning (n, m, mPresent,
// lineNo-after-header).
func readEdgeListHeader(sc *bufio.Scanner, lineNo int) (int, int64, bool, int, error) {
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if (len(fields) != 2 && len(fields) != 4) || fields[0] != "n" || (len(fields) == 4 && fields[2] != "m") {
			return 0, 0, false, lineNo, fmt.Errorf("line %d: expected header \"n <count>\" or \"n <count> m <edges>\", got %q", lineNo, line)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return 0, 0, false, lineNo, fmt.Errorf("line %d: bad vertex count %q", lineNo, fields[1])
		}
		if n > MaxEdgeListVertices {
			return 0, 0, false, lineNo, fmt.Errorf("line %d: vertex count %d exceeds limit %d", lineNo, n, MaxEdgeListVertices)
		}
		var m int64
		exact := false
		if len(fields) == 4 {
			m, err = strconv.ParseInt(fields[3], 10, 64)
			if err != nil || m < 0 {
				return 0, 0, false, lineNo, fmt.Errorf("line %d: bad edge count %q", lineNo, fields[3])
			}
			exact = true
		}
		return n, m, exact, lineNo, nil
	}
	if err := sc.Err(); err != nil {
		return 0, 0, false, lineNo, fmt.Errorf("scan edge list: %w", err)
	}
	return 0, 0, false, lineNo, fmt.Errorf("edge list: missing \"n <count>\" header")
}

// scanEdgeListBody parses every edge line after the header, calling
// visit(u, v, lineNo) for each. An edge line is two vertex ids
// separated by any run of spaces or tabs. Range and self-loop
// violations are rejected here, with their line number; visit handles
// the rest.
func scanEdgeListBody(sc *bufio.Scanner, n, lineNo int, visit func(u, v int32, lineNo int) error) (int64, error) {
	var edges int64
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sep := strings.IndexAny(line, " \t")
		if sep < 0 {
			return 0, fmt.Errorf("line %d: expected \"u v\", got %q", lineNo, line)
		}
		uStr, vStr := line[:sep], strings.TrimLeft(line[sep:], " \t")
		u, err := strconv.Atoi(uStr)
		if err != nil {
			return 0, fmt.Errorf("line %d: bad vertex %q", lineNo, uStr)
		}
		v, err := strconv.Atoi(vStr)
		if err != nil {
			return 0, fmt.Errorf("line %d: bad vertex %q", lineNo, vStr)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return 0, fmt.Errorf("line %d: %w: edge {%d,%d} with n=%d", lineNo, ErrVertexRange, u, v, n)
		}
		if u == v {
			return 0, fmt.Errorf("line %d: self-loop at vertex %d", lineNo, u)
		}
		if err := visit(int32(u), int32(v), lineNo); err != nil {
			return 0, err
		}
		edges++
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("scan edge list: %w", err)
	}
	return edges, nil
}

func loadEdgeListCSR(path string, workers int) (*Graph, string, error) {
	// Pass 1: count degrees, hash every byte.
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	h := sha256.New()
	sc := newGraphScanner(io.TeeReader(f, h))
	n, declaredM, haveM, lineNo, err := readEdgeListHeader(sc, 0)
	if err != nil {
		f.Close()
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	b := NewCSRBuilder(n)
	edges, err := scanEdgeListBody(sc, n, lineNo, func(u, v int32, _ int) error {
		b.Count(u, v)
		return nil
	})
	f.Close()
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	if haveM && edges != declaredM {
		return nil, "", fmt.Errorf("%s: header declares m=%d but file contains %d edge lines", path, declaredM, edges)
	}
	digest := hex.EncodeToString(h.Sum(nil))
	if err := b.FinishCounts(); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	// Pass 2: re-read and place. The file has not been re-validated —
	// it also hasn't changed, and if it has, the builder's pass-mismatch
	// check refuses the result rather than mis-building.
	g, err := edgeListSecondPass(path, b, n, workers)
	if err != nil {
		return nil, "", err
	}
	// Dedupe loss means the file listed some edge twice (in either
	// orientation) — find and name the first offending line.
	if int64(g.M()) != edges {
		return nil, "", fmt.Errorf("%s: %w", path, findDuplicateEdgeLine(path, g))
	}
	return g, digest, nil
}

func edgeListSecondPass(path string, b *CSRBuilder, n, workers int) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := newGraphScanner(f)
	_, _, _, lineNo, err := readEdgeListHeader(sc, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if _, err := scanEdgeListBody(sc, n, lineNo, func(u, v int32, _ int) error {
		b.Place(u, v)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	g, err := b.Finish(workers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// findDuplicateEdgeLine re-scans a file already known to contain a
// duplicate edge and names the first line whose edge was seen before.
// Error path only: costs one extra file pass plus a bit per final arc.
func findDuplicateEdgeLine(path string, g *Graph) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := newGraphScanner(f)
	n, _, _, lineNo, err := readEdgeListHeader(sc, 0)
	if err != nil {
		return err
	}
	return duplicateEdge(g, func(visit func(u, v int32, lineNo int) error) error {
		_, err := scanEdgeListBody(sc, n, lineNo, visit)
		return err
	})
}

// duplicateEdge replays an edge list that names some edge of g twice
// and returns an error naming the line of the first repeat. Each edge
// has a unique arc position in g's deduplicated rows, so a seen-bitmap
// over arc positions detects revisits exactly.
func duplicateEdge(g *Graph, replay func(visit func(u, v int32, lineNo int) error) error) error {
	seen := make([]uint64, (len(g.cols)+63)/64)
	err := replay(func(u, v int32, lineNo int) error {
		// Canonical orientation: "0 1" and "1 0" are the same edge and
		// must mark the same bit.
		idx := g.arcIndex(min(u, v), max(u, v))
		if seen[idx>>6]&(1<<(uint(idx)&63)) != 0 {
			return fmt.Errorf("line %d: duplicate edge {%d,%d}", lineNo, u, v)
		}
		seen[idx>>6] |= 1 << (uint(idx) & 63)
		return nil
	})
	if err != nil {
		return err
	}
	return fmt.Errorf("duplicate edges present but not relocated on re-scan (file changed mid-load?)")
}

// arcIndex returns the position of arc u→v in the flat column array.
// The caller guarantees the arc exists.
func (g *Graph) arcIndex(u, v int32) int64 {
	i, _ := slices.BinarySearch(g.Neighbors(int(u)), v)
	return g.offsets[u] + int64(i)
}

// --- binary edge list -------------------------------------------------

// binaryEdgeListMagic opens the binary edge-list format: the magic,
// then uint64 vertex count, uint64 edge count, then exactly 2·m uint32
// values (u, v per edge), all little-endian. One undirected edge per
// pair, either orientation, no duplicates, no self-loops — the same
// contract as the text format, at 8 bytes per edge and no parsing.
const binaryEdgeListMagic = "BEL1"

// WriteBinaryEdgeList writes g in the binary edge-list format. The
// format round-trips through LoadCSRFile, including isolated vertices.
func WriteBinaryEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(binaryEdgeListMagic)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(g.N()))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.M()))
	bw.Write(hdr[:])
	var rec [8]byte
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				binary.LittleEndian.PutUint32(rec[0:4], uint32(u))
				binary.LittleEndian.PutUint32(rec[4:8], uint32(v))
				if _, err := bw.Write(rec[:]); err != nil {
					return fmt.Errorf("write edge: %w", err)
				}
			}
		}
	}
	return bw.Flush()
}

func readBinaryHeader(r io.Reader) (int, int64, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("binary edge list: header: %w", err)
	}
	if string(hdr[0:4]) != binaryEdgeListMagic {
		return 0, 0, fmt.Errorf("binary edge list: bad magic %q (want %q)", hdr[0:4], binaryEdgeListMagic)
	}
	n := binary.LittleEndian.Uint64(hdr[4:12])
	m := binary.LittleEndian.Uint64(hdr[12:20])
	if n > MaxEdgeListVertices {
		return 0, 0, fmt.Errorf("binary edge list: vertex count %d exceeds limit %d", n, MaxEdgeListVertices)
	}
	if m > (1 << 33) {
		return 0, 0, fmt.Errorf("binary edge list: edge count %d exceeds limit %d", m, int64(1)<<33)
	}
	return int(n), int64(m), nil
}

// scanBinaryBody reads exactly m edge records, calling visit(u, v,
// entry) for each; entry is the 0-based record index (the binary
// format's analogue of a line number).
func scanBinaryBody(r io.Reader, n int, m int64, visit func(u, v int32, entry int64) error) error {
	br := bufio.NewReaderSize(r, 1<<20)
	buf := make([]byte, 8*4096)
	var entry int64
	for entry < m {
		batch := min(int64(4096), m-entry)
		chunk := buf[:8*batch]
		if _, err := io.ReadFull(br, chunk); err != nil {
			return fmt.Errorf("binary edge list: entry %d: %w", entry, err)
		}
		for i := int64(0); i < batch; i++ {
			u := binary.LittleEndian.Uint32(chunk[8*i:])
			v := binary.LittleEndian.Uint32(chunk[8*i+4:])
			if u >= uint32(n) || v >= uint32(n) {
				return fmt.Errorf("binary edge list: entry %d: %w: edge {%d,%d} with n=%d", entry+i, ErrVertexRange, u, v, n)
			}
			if u == v {
				return fmt.Errorf("binary edge list: entry %d: self-loop at vertex %d", entry+i, u)
			}
			if err := visit(int32(u), int32(v), entry+i); err != nil {
				return err
			}
		}
		entry += batch
	}
	// The byte after the last record must be EOF: trailing data means a
	// header/body mismatch, which must not alias a valid digest.
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("binary edge list: trailing data after %d declared edges", m)
	}
	return nil
}

func loadBinaryEdgeListCSR(path string, workers int) (*Graph, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	h := sha256.New()
	tee := io.TeeReader(f, h)
	n, m, err := readBinaryHeader(tee)
	if err != nil {
		f.Close()
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	b := NewCSRBuilder(n)
	err = scanBinaryBody(tee, n, m, func(u, v int32, _ int64) error {
		b.Count(u, v)
		return nil
	})
	f.Close()
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	digest := hex.EncodeToString(h.Sum(nil))
	if err := b.FinishCounts(); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	f, err = os.Open(path)
	if err != nil {
		return nil, "", err
	}
	if _, _, err := readBinaryHeader(f); err == nil {
		err = scanBinaryBody(f, n, m, func(u, v int32, _ int64) error {
			b.Place(u, v)
			return nil
		})
	}
	f.Close()
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	g, err := b.Finish(workers)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	if int64(g.M()) != m {
		return nil, "", fmt.Errorf("%s: %w", path, findDuplicateBinaryEntry(path, g))
	}
	return g, digest, nil
}

// findDuplicateBinaryEntry is findDuplicateEdgeLine for the binary
// format, naming the first duplicate record's entry index.
func findDuplicateBinaryEntry(path string, g *Graph) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, m, err := readBinaryHeader(f)
	if err != nil {
		return err
	}
	seen := make([]uint64, (len(g.cols)+63)/64)
	err = scanBinaryBody(f, n, m, func(u, v int32, entry int64) error {
		idx := g.arcIndex(min(u, v), max(u, v))
		if seen[idx>>6]&(1<<(uint(idx)&63)) != 0 {
			return fmt.Errorf("binary edge list: entry %d: duplicate edge {%d,%d}", entry, u, v)
		}
		seen[idx>>6] |= 1 << (uint(idx) & 63)
		return nil
	})
	if err != nil {
		return err
	}
	return fmt.Errorf("duplicate edges present but not relocated on re-scan (file changed mid-load?)")
}

// --- METIS ------------------------------------------------------------

// WriteMETIS writes g in the standard unweighted METIS graph format:
// a "<n> <m>" header, then one line per vertex listing its 1-based
// neighbours. Round-trips through LoadCSRFile.
func WriteMETIS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	for u := 0; u < g.N(); u++ {
		for i, v := range g.Neighbors(u) {
			if i > 0 {
				bw.WriteByte(' ')
			}
			if _, err := fmt.Fprintf(bw, "%d", v+1); err != nil {
				return fmt.Errorf("write row: %w", err)
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// readMETISHeader consumes '%'-comment lines and parses the METIS
// header "<n> <m> [fmt [ncon]]". Only the unweighted format (fmt
// absent or all zeros) is supported.
func readMETISHeader(sc *bufio.Scanner) (int, int64, int, error) {
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 4 {
			return 0, 0, lineNo, fmt.Errorf("line %d: expected METIS header \"n m [fmt]\", got %q", lineNo, line)
		}
		n, err := strconv.Atoi(fields[0])
		if err != nil || n < 0 {
			return 0, 0, lineNo, fmt.Errorf("line %d: bad vertex count %q", lineNo, fields[0])
		}
		if n > MaxEdgeListVertices {
			return 0, 0, lineNo, fmt.Errorf("line %d: vertex count %d exceeds limit %d", lineNo, n, MaxEdgeListVertices)
		}
		m, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || m < 0 {
			return 0, 0, lineNo, fmt.Errorf("line %d: bad edge count %q", lineNo, fields[1])
		}
		if len(fields) >= 3 && strings.Trim(fields[2], "0") != "" {
			return 0, 0, lineNo, fmt.Errorf("line %d: weighted METIS graphs (fmt=%s) are not supported", lineNo, fields[2])
		}
		return n, m, lineNo, nil
	}
	if err := sc.Err(); err != nil {
		return 0, 0, lineNo, fmt.Errorf("scan METIS file: %w", err)
	}
	return 0, 0, lineNo, fmt.Errorf("METIS file: missing \"n m\" header")
}

// scanMETISBody parses the n adjacency rows after the header, calling
// visit(u, v, lineNo) for every 0-based arc u→v the file lists. Range
// and self-loop violations are rejected here with their line number.
func scanMETISBody(sc *bufio.Scanner, n, lineNo int, visit func(u, v int32, lineNo int) error) error {
	row := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "%") {
			continue
		}
		if row >= n {
			if line == "" {
				continue
			}
			return fmt.Errorf("line %d: more than %d adjacency rows", lineNo, n)
		}
		u := row
		row++
		for _, fld := range strings.Fields(line) {
			w, err := strconv.Atoi(fld)
			if err != nil || w < 1 || w > n {
				return fmt.Errorf("line %d: vertex %d: bad neighbour %q (1-based, must be in [1,%d])", lineNo, u, fld, n)
			}
			v := w - 1
			if v == u {
				return fmt.Errorf("line %d: self-loop at vertex %d", lineNo, u)
			}
			if err := visit(int32(u), int32(v), lineNo); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("scan METIS file: %w", err)
	}
	if row < n {
		return fmt.Errorf("METIS file: %d adjacency rows, header declares %d vertices", row, n)
	}
	return nil
}

func loadMETISCSR(path string, workers int) (*Graph, string, error) {
	// Pass 1: count, hash, and record each row's file line + arc count
	// for the symmetry/duplicate cross-check after finalisation. METIS
	// lists every undirected edge once per endpoint row, so only the
	// u < v orientation feeds the builder; the v < u mirrors are
	// vouched for by the degree cross-check below.
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	h := sha256.New()
	sc := newGraphScanner(io.TeeReader(f, h))
	n, declaredM, lineNo, err := readMETISHeader(sc)
	if err != nil {
		f.Close()
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	b := NewCSRBuilder(n)
	rowArcs := make([]int32, n)
	rowLine := make([]int32, n)
	err = scanMETISBody(sc, n, lineNo, func(u, v int32, lineNo int) error {
		rowArcs[u]++
		rowLine[u] = int32(lineNo)
		if v > u {
			b.Count(u, v)
		}
		return nil
	})
	f.Close()
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	digest := hex.EncodeToString(h.Sum(nil))
	if err := b.FinishCounts(); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	f, err = os.Open(path)
	if err != nil {
		return nil, "", err
	}
	sc = newGraphScanner(f)
	if _, _, lineNo, err = readMETISHeader(sc); err == nil {
		err = scanMETISBody(sc, n, lineNo, func(u, v int32, _ int) error {
			if v > u {
				b.Place(u, v)
			}
			return nil
		})
	}
	f.Close()
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	g, err := b.Finish(workers)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	// A symmetric, duplicate-free file has every row's arc count equal
	// to the built degree; the first row violating that names the line.
	for v := 0; v < n; v++ {
		if int(rowArcs[v]) != g.Degree(v) {
			return nil, "", fmt.Errorf("%s: line %d: vertex %d lists %d neighbours but the file's edge set gives it degree %d (asymmetric or duplicate entry)",
				path, rowLine[v], v, rowArcs[v], g.Degree(v))
		}
	}
	if int64(g.M()) != declaredM {
		return nil, "", fmt.Errorf("%s: header declares m=%d but the file contains %d edges", path, declaredM, g.M())
	}
	return g, digest, nil
}

// HashGraphFile returns the hex SHA-256 digest of the file's bytes —
// the same digest the loaders report, without building the graph. The
// scenario compiler uses it to fold file identity into the content
// hash at validation time.
func HashGraphFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hash %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
