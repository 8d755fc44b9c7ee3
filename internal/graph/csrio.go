package graph

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// This file holds the streamed graph-file loader: one table of formats
// (text edge list, binary edge list, METIS) and one loader that
// constructs a Graph directly through CSRBuilder. The source IS the
// edge buffer — the loader reads it twice (count pass, place pass) and
// never buffers the edge list, so peak memory during ingestion is the
// CSRBuilder bound (~1.2× the final rows) plus O(n) parse metadata,
// regardless of file size. Pass one also folds every byte through
// SHA-256; the returned digest is what the scenario layer mixes into
// the content hash so the misd result cache stays sound for
// file-referenced graphs (same spec + different file bytes ⇒ different
// hash).
//
// The loader validates as it parses and returns errors naming the
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
	f, ok := graphFormats[format]
	if !ok {
		return nil, "", fmt.Errorf("graph: unknown graph file format %q", format)
	}
	g, digest, err := f.load(func() (io.ReadCloser, error) { return os.Open(path) }, workers)
	// Opening or reading the file fails with an *fs.PathError, which
	// already names the path.
	var pathErr *fs.PathError
	if err != nil && !errors.As(err, &pathErr) {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return g, digest, err
}

// visitFunc receives one edge record of a graph file and its position:
// a line number, or a binary entry index.
type visitFunc func(u, v int32, pos int) error

// rowFunc receives the start of a mirrored format's adjacency row u and
// its position.
type rowFunc func(u int32, pos int)

// A graphFormat is one row of the loader's format table.
type graphFormat struct {
	// scan parses a whole file from r with the format's header and body
	// scanners: it passes the header's vertex count and declared edge
	// count (-1 when the header declares none) to header, then calls
	// visit with every edge record. A mirrored format calls row at the
	// start of each adjacency row, in vertex order, before the row's
	// records.
	scan func(r io.Reader, header func(n int, m int64), row rowFunc, visit visitFunc) error
	// at names a position in an error.
	at string
	// mirrored marks a format that lists every edge from both ends
	// (METIS): only its u < v records build the graph, and each row
	// must list exactly its vertex's built neighbours, each once.
	mirrored bool
}

var graphFormats = map[string]graphFormat{
	FormatEdgeList: {at: "line", scan: func(r io.Reader, header func(int, int64), _ rowFunc, visit visitFunc) error {
		sc := newGraphScanner(r)
		n, m, exact, lineNo, err := readEdgeListHeader(sc, 0)
		if err != nil {
			return err
		}
		if !exact {
			m = -1
		}
		header(n, m)
		_, err = scanEdgeListBody(sc, n, lineNo, visit)
		return err
	}},
	FormatBinaryEdgeList: {at: "binary edge list: entry", scan: func(r io.Reader, header func(int, int64), _ rowFunc, visit visitFunc) error {
		n, m, err := readBinaryHeader(r)
		if err != nil {
			return err
		}
		header(n, m)
		return scanBinaryBody(r, n, m, func(u, v int32, entry int64) error { return visit(u, v, int(entry)) })
	}},
	FormatMETIS: {at: "line", mirrored: true, scan: func(r io.Reader, header func(int, int64), row rowFunc, visit visitFunc) error {
		sc := newGraphScanner(r)
		n, m, lineNo, err := readMETISHeader(sc)
		if err != nil {
			return err
		}
		header(n, m)
		return scanMETISBody(sc, n, lineNo, row, visit)
	}},
}

// builds reports whether the record u→v feeds the builder: every
// record does, except the v < u half of a mirrored format.
func (f graphFormat) builds(u, v int32) bool { return !f.mirrored || u < v }

// pass opens src and scans it once, through tee when tee is not nil.
func (f graphFormat) pass(src func() (io.ReadCloser, error), tee io.Writer, header func(n int, m int64), row rowFunc, visit visitFunc) error {
	rc, err := src()
	if err != nil {
		return err
	}
	defer rc.Close()
	var r io.Reader = rc
	if tee != nil {
		r = io.TeeReader(rc, tee)
	}
	return f.scan(r, header, row, visit)
}

// load builds the graph that the bytes src opens describe in format f,
// and returns it with the hex SHA-256 digest of those bytes. Pass one
// hashes the bytes and counts degrees; pass two places the arcs and
// checks a mirrored format's v < u records; and only when Finish's
// dedupe dropped an edge does one more scan name the first record that
// repeats one.
func (f graphFormat) load(src func() (io.ReadCloser, error), workers int) (*Graph, string, error) {
	h := sha256.New()
	var (
		b              *CSRBuilder
		declared, fed  int64
		rowArcs, rowAt []int32 // mirrored: each row's record count and position
	)
	err := f.pass(src, h, func(n int, m int64) {
		b, declared = NewCSRBuilder(n), m
		if f.mirrored {
			rowArcs, rowAt = make([]int32, n), make([]int32, n)
		}
	}, func(u int32, pos int) {
		rowAt[u] = int32(pos)
	}, func(u, v int32, pos int) error {
		if f.mirrored {
			rowArcs[u]++
		}
		if f.builds(u, v) {
			b.Count(u, v)
			fed++
		}
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	// A mirrored format's declared count is checked against the built
	// graph, after the row check below has named any bad row.
	if !f.mirrored && declared >= 0 && declared != fed {
		return nil, "", fmt.Errorf("header declares m=%d but the file contains %d edges", declared, fed)
	}
	if err := b.FinishCounts(); err != nil {
		return nil, "", err
	}
	// Pass two relies on pass one's checks: if the bytes changed between
	// the passes, the builder's pass-mismatch check refuses the result
	// rather than mis-building.
	//
	// A mirrored row's v < u records build nothing; each must name one
	// of u's lower neighbours, and none twice. Rows arrive in vertex
	// order, so when row u starts every lower neighbour has placed its
	// arc into u's builder row, and no other arc has: mark holds u+1 at
	// each of them, negated once the row has listed it. The row-count
	// check after Finish then finds any lower neighbour a row leaves
	// out.
	var mark []int32
	if f.mirrored {
		mark = make([]int32, b.N())
	}
	err = f.pass(src, nil, func(int, int64) {}, func(u int32, _ int) {
		if int(u) < len(mark) {
			for _, v := range b.placed(u) {
				mark[v] = u + 1
			}
		}
	}, func(u, v int32, pos int) error {
		switch {
		case f.builds(u, v) || int(u) >= len(mark):
			// A row past pass one's vertices means the file grew
			// between the passes: Place records the error Finish
			// returns.
			b.Place(u, v)
		case mark[v] == u+1:
			mark[v] = -(u + 1)
		case mark[v] == -(u + 1):
			return fmt.Errorf("%s %d: vertex %d lists vertex %d twice (asymmetric or duplicate entry)", f.at, pos, u, v)
		default:
			return fmt.Errorf("%s %d: vertex %d lists vertex %d, but vertex %d does not list vertex %d (asymmetric or duplicate entry)", f.at, pos, u, v, v, u)
		}
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	g, err := b.Finish(workers)
	if err != nil {
		return nil, "", err
	}
	if f.mirrored {
		for v, arcs := range rowArcs {
			if int(arcs) != g.Degree(v) {
				return nil, "", fmt.Errorf("%s %d: vertex %d lists %d neighbours but the file's edge set gives it degree %d (asymmetric or duplicate entry)",
					f.at, rowAt[v], v, arcs, g.Degree(v))
			}
		}
		if declared != int64(g.M()) {
			return nil, "", fmt.Errorf("header declares m=%d but the file contains %d edges", declared, g.M())
		}
	}
	if int64(g.M()) != fed {
		return nil, "", f.duplicate(src, g)
	}
	return g, hex.EncodeToString(h.Sum(nil)), nil
}

// duplicate rescans src, whose records name some edge of g twice, and
// returns an error naming the position of the first repeat. Error path
// only: it costs one more pass plus a bit per arc of g. Each edge has
// one arc position in g's deduplicated rows, so a seen-bitmap over arc
// positions detects repeats exactly.
func (f graphFormat) duplicate(src func() (io.ReadCloser, error), g *Graph) error {
	seen := make([]uint64, (len(g.cols)+63)/64)
	err := f.pass(src, nil, func(int, int64) {}, func(int32, int) {}, func(u, v int32, pos int) error {
		if !f.builds(u, v) {
			return nil
		}
		// Canonical orientation: "0 1" and "1 0" are the same edge and
		// must mark the same bit.
		idx := g.arcIndex(min(u, v), max(u, v))
		if seen[idx>>6]&(1<<(uint(idx)&63)) != 0 {
			return fmt.Errorf("%s %d: duplicate edge {%d,%d}", f.at, pos, u, v)
		}
		seen[idx>>6] |= 1 << (uint(idx) & 63)
		return nil
	})
	if err != nil {
		return err
	}
	return fmt.Errorf("duplicate edges present but not relocated on re-scan (file changed mid-load?)")
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
// row(u, lineNo) as row u starts and visit(u, v, lineNo) for every
// 0-based arc u→v the file lists. Range and self-loop violations are
// rejected here with their line number.
func scanMETISBody(sc *bufio.Scanner, n, lineNo int, row rowFunc, visit visitFunc) error {
	rows := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "%") {
			continue
		}
		if rows >= n {
			if line == "" {
				continue
			}
			return fmt.Errorf("line %d: more than %d adjacency rows", lineNo, n)
		}
		u := rows
		rows++
		row(int32(u), lineNo)
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
	if rows < n {
		return fmt.Errorf("METIS file: %d adjacency rows, header declares %d vertices", rows, n)
	}
	return nil
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
