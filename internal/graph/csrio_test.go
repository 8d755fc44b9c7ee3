package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"beepmis/internal/rng"
)

// writeTemp writes content to a file with the given name inside a fresh
// temp dir and returns its path.
func writeTemp(t *testing.T, name string, content []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadCSRFileRoundTrips: each writer/loader pair must reproduce the
// source graph bit-for-bit (as a CSR), and the loader's digest must
// match HashGraphFile.
func TestLoadCSRFileRoundTrips(t *testing.T) {
	g := GNP(120, 0.08, rng.New(9))
	want := g
	cases := map[string]struct {
		name  string
		write func(*bytes.Buffer) error
	}{
		"edgelist":        {"g.el", func(b *bytes.Buffer) error { return WriteEdgeList(b, g) }},
		"edgelist-binary": {"g.bel", func(b *bytes.Buffer) error { return WriteBinaryEdgeList(b, g) }},
		"metis":           {"g.graph", func(b *bytes.Buffer) error { return WriteMETIS(b, g) }},
	}
	for format, tc := range cases {
		t.Run(format, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(&buf); err != nil {
				t.Fatal(err)
			}
			path := writeTemp(t, tc.name, buf.Bytes())
			if got := DetectGraphFormat(path); got != format {
				t.Fatalf("DetectGraphFormat(%s) = %q, want %q", path, got, format)
			}
			for _, workers := range []int{1, 3} {
				c, digest, err := LoadCSRFile(path, "", workers)
				if err != nil {
					t.Fatal(err)
				}
				if !csrEqual(c, want) {
					t.Fatalf("workers=%d: loaded CSR differs from source", workers)
				}
				if fileDigest, err := HashGraphFile(path); err != nil || digest != fileDigest {
					t.Fatalf("loader digest %s != HashGraphFile %s (err=%v)", digest, fileDigest, err)
				}
			}
			info, err := PeekGraphFile(path, "")
			if err != nil {
				t.Fatal(err)
			}
			if info.N != g.N() {
				t.Fatalf("peek N = %d, want %d", info.N, g.N())
			}
			if info.Edges < int64(g.M()) {
				t.Fatalf("peek edge bound %d below the true count %d", info.Edges, g.M())
			}
			if info.EdgesExact && info.Edges != int64(g.M()) {
				t.Fatalf("peek claims exactly %d edges, file has %d", info.Edges, g.M())
			}
		})
	}
}

// TestLoadCSRFileIsolatedVertices: trailing isolated vertices survive
// every format (the header's n carries them).
func TestLoadCSRFileIsolatedVertices(t *testing.T) {
	b := NewBuilder(6)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	for format, write := range map[string]func(io.Writer, *Graph) error{
		"x.el":    WriteEdgeList,
		"x.bel":   WriteBinaryEdgeList,
		"x.graph": WriteMETIS,
	} {
		var buf bytes.Buffer
		if err := write(&buf, g); err != nil {
			t.Fatal(err)
		}
		c, _, err := LoadCSRFile(writeTemp(t, format, buf.Bytes()), "", 1)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if c.N() != 6 || c.M() != 1 {
			t.Fatalf("%s: loaded (n=%d, m=%d), want (6, 1)", format, c.N(), c.M())
		}
	}
}

// TestEdgeListMalformed is the malformed-input table for the text
// loader: every bad input errors (never panics) and names the
// offending line.
func TestEdgeListMalformed(t *testing.T) {
	cases := map[string]struct {
		content  string
		wantLine string // substring the error must contain
	}{
		"missing-header":    {"0 1\n", "line 1"},
		"empty":             {"", "missing"},
		"bad-n":             {"n abc\n", "line 1"},
		"negative-n":        {"n -3\n", "line 1"},
		"huge-n":            {"n 999999999\n", "line 1"},
		"bad-m":             {"n 4 m xyz\n", "line 1"},
		"bad-header-shape":  {"vertices 4\n0 1\n", "line 1"},
		"one-field-edge":    {"n 4\n01\n", "line 2"},
		"bad-vertex":        {"n 4\n0 x\n", "line 2"},
		"out-of-range":      {"n 4\n0 7\n", "line 2"},
		"negative-vertex":   {"n 4\n-1 2\n", "line 2"},
		"self-loop":         {"n 4\n0 1\n2 2\n", "line 3"},
		"duplicate":         {"n 4\n0 1\n2 3\n1 0\n", "line 4"},
		"duplicate-same":    {"n 4\n# c\n0 1\n0 1\n", "line 4"},
		"m-undercount":      {"n 4 m 3\n0 1\n", "declares m=3"},
		"m-overcount":       {"n 4 m 1\n0 1\n2 3\n", "declares m=1"},
		"duplicate-is-dupe": {"n 3\n0 1\n1 2\n0 1\n", "duplicate edge {0,1}"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			path := writeTemp(t, "bad.el", []byte(tc.content))
			_, _, err := LoadCSRFile(path, FormatEdgeList, 1)
			if err == nil {
				t.Fatal("malformed edge list loaded without error")
			}
			if !strings.Contains(err.Error(), tc.wantLine) {
				t.Fatalf("error %q does not name %q", err, tc.wantLine)
			}
		})
	}
}

// TestBinaryEdgeListMalformed is the malformed-input table for the
// binary loader.
func TestBinaryEdgeListMalformed(t *testing.T) {
	// header(n=4, m=1) + edge {0,1}
	valid := func() []byte {
		var buf bytes.Buffer
		b := NewBuilder(4)
		if err := b.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinaryEdgeList(&buf, b.Build()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	le32 := func(v uint32) []byte {
		return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	}
	cases := map[string]struct {
		content []byte
		want    string
	}{
		"empty":        {nil, "header"},
		"bad-magic":    {append([]byte("NOPE"), valid[4:]...), "bad magic"},
		"truncated":    {valid[:len(valid)-4], "entry 0"},
		"trailing":     {append(append([]byte{}, valid...), 1, 2, 3), "trailing data"},
		"out-of-range": {append(valid[:20], append(le32(0), le32(9)...)...), "entry 0"},
		"self-loop":    {append(valid[:20], append(le32(2), le32(2)...)...), "self-loop"},
		"duplicate": {append(append([]byte{}, valid[:12]...),
			append([]byte{2, 0, 0, 0, 0, 0, 0, 0}, // m=2
				append(append(le32(0), le32(1)...), append(le32(1), le32(0)...)...)...)...),
			"entry 1: duplicate"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			path := writeTemp(t, "bad.bel", tc.content)
			_, _, err := LoadCSRFile(path, FormatBinaryEdgeList, 1)
			if err == nil {
				t.Fatal("malformed binary edge list loaded without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestMETISMalformed is the malformed-input table for the METIS loader.
func TestMETISMalformed(t *testing.T) {
	cases := map[string]struct {
		content string
		want    string
	}{
		"empty":           {"", "missing"},
		"bad-header":      {"x y\n", "line 1"},
		"weighted":        {"3 2 011\n2\n1 3\n2\n", "not supported"},
		"bad-neighbour":   {"2 1\n2\nx\n", "line 3"},
		"zero-neighbour":  {"2 1\n0\n1\n", "line 2"},
		"out-of-range":    {"2 1\n3\n1\n", "line 2"},
		"self-loop":       {"2 1\n1\n2\n", "line 2"},
		"missing-rows":    {"3 1\n2\n1\n", "adjacency rows"},
		"extra-rows":      {"2 1\n2\n1\n1 2\n", "line 4"},
		"asymmetric":      {"3 2\n2\n1 3\n\n", "asymmetric or duplicate"},
		"duplicate-entry": {"2 1\n2 2\n1 1\n", "asymmetric or duplicate"},
		"wrong-m":         {"2 5\n2\n1\n", "declares m=5"},
		// Rows whose counts balance but whose entries do not mirror the
		// edges the other rows build.
		"repeated-mirror": {"3 2\n3\n3\n1 1\n", "line 4: vertex 2 lists vertex 0 twice"},
		"wrong-mirror":    {"3 2\n2\n1 3\n1\n", "line 4: vertex 2 lists vertex 0, but vertex 0 does not list vertex 2"},
		"empty-row":       {"2 1\n2\n\n", "line 3: vertex 1 lists 0 neighbours"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			path := writeTemp(t, "bad.graph", []byte(tc.content))
			_, _, err := LoadCSRFile(path, FormatMETIS, 1)
			if err == nil {
				t.Fatal("malformed METIS file loaded without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestMETISDuplicateBalancedRows: a METIS file can repeat a u < v
// entry and drop a mirror so that every row's count still equals the
// built degree; the duplicate rescan names the repeat's line.
func TestMETISDuplicateBalancedRows(t *testing.T) {
	path := writeTemp(t, "dup.graph", []byte("3 3\n2 3\n3 3\n1 2\n"))
	if _, _, err := LoadCSRFile(path, FormatMETIS, 1); err == nil || !strings.Contains(err.Error(), "line 3: duplicate edge {1,2}") {
		t.Fatalf("err = %v, want line 3's duplicate edge {1,2}", err)
	}
}

// TestLoadRefusesBytesChangedBetweenPasses: a source whose second read
// returns other bytes is refused with an error, never a panic or a
// mis-built graph, including a METIS file that grew a row.
func TestLoadRefusesBytesChangedBetweenPasses(t *testing.T) {
	for format, reads := range map[string][2]string{
		FormatEdgeList: {"n 3\n0 1\n", "n 4\n0 1\n2 3\n"},
		FormatMETIS:    {"2 1\n2\n1\n", "3 1\n2\n1\n1\n"},
	} {
		n := 0
		src := func() (io.ReadCloser, error) {
			n++
			return io.NopCloser(strings.NewReader(reads[min(n, 2)-1])), nil
		}
		if g, _, err := graphFormats[format].load(src, 1); err == nil {
			t.Errorf("%s: bytes changed between the passes, yet loaded %v", format, g)
		}
	}
}

// TestLoadCSRFileNamesPathOnce: every load error names the file's path
// exactly once, whether the parser or the file system raised it.
func TestLoadCSRFileNamesPathOnce(t *testing.T) {
	dir := t.TempDir()
	for name, path := range map[string]string{
		"malformed": writeTemp(t, "bad.el", []byte("n 4\n0 9\n")),
		"missing":   filepath.Join(dir, "missing.el"),
		"directory": dir,
	} {
		for _, format := range []string{FormatEdgeList, FormatBinaryEdgeList, FormatMETIS} {
			_, _, err := LoadCSRFile(path, format, 1)
			if err == nil || strings.Count(err.Error(), path) != 1 {
				t.Errorf("%s as %s: error %v does not name %s once", name, format, err, path)
			}
		}
	}
}

// TestVertexLimitBeforeAllocation: a header over MaxEdgeListVertices is
// refused, naming its line, before any per-vertex allocation, from a
// file and from a reader alike.
func TestVertexLimitBeforeAllocation(t *testing.T) {
	in := fmt.Sprintf("n %d\n", MaxEdgeListVertices+1)
	path := writeTemp(t, "huge.el", []byte(in))
	for name, load := range map[string]func() error{
		"file":   func() error { _, _, err := LoadCSRFile(path, FormatEdgeList, 1); return err },
		"reader": func() error { _, err := ReadEdgeList(strings.NewReader(in)); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := load()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "line 1: vertex count") {
			t.Fatalf("%s: err = %v, want line 1's vertex count refused", name, err)
		}
		// One row offset per vertex alone would be 8·2²² bytes.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Fatalf("%s: refusing the header allocated %d bytes", name, alloc)
		}
	}
}

// TestLoadCSRFileUnknownFormat: unknown format names are errors for
// both loading and peeking.
func TestLoadCSRFileUnknownFormat(t *testing.T) {
	path := writeTemp(t, "g.el", []byte("n 1\n"))
	if _, _, err := LoadCSRFile(path, "pajek", 1); err == nil {
		t.Fatal("unknown format did not error")
	}
	if _, err := PeekGraphFile(path, "pajek"); err == nil {
		t.Fatal("unknown peek format did not error")
	}
}

// FuzzEdgeList: arbitrary bytes must never panic the text loader, and
// anything it accepts must be a valid graph whose digest matches the
// file's bytes.
func FuzzEdgeList(f *testing.F) {
	f.Add([]byte("n 4\n0 1\n2 3\n"))
	f.Add([]byte("n 4 m 2\n0 1\n2 3\n"))
	f.Add([]byte("# comment\n\nn 2\n0 1\n"))
	f.Add([]byte("n 0\n"))
	f.Add([]byte("n 4\n0 0\n"))
	f.Add([]byte("n 4\n0 1\n1 0\n"))
	f.Add([]byte("n -1\n"))
	f.Add([]byte("n 4\n0 9\n"))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzLoad(t, "fuzz.el", FormatEdgeList, data) })
}

// fuzzLoad is the loader fuzzers' contract: LoadCSRFile never panics on
// data, and a graph it accepts passes Validate and carries the digest
// HashGraphFile gives the same bytes. It returns that graph, or nil
// when the loader refused data.
func fuzzLoad(t *testing.T, name, format string, data []byte) *Graph {
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Skip()
	}
	c, digest, err := LoadCSRFile(path, format, 1)
	if err != nil {
		return nil
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("accepted graph fails validation: %v", err)
	}
	want, err := HashGraphFile(path)
	if err != nil || digest != want {
		t.Fatalf("digest %s != file hash %s (err=%v)", digest, want, err)
	}
	return c
}

// FuzzMETIS: the METIS loader under arbitrary bytes — the same
// contract, and every row of an accepted file lists exactly its
// vertex's neighbours, each once.
func FuzzMETIS(f *testing.F) {
	f.Add([]byte("2 1\n2\n1\n"))
	f.Add([]byte("% comment\n3 2\n2\n1 3\n2\n"))
	f.Add([]byte("0 0\n"))
	f.Add([]byte("3 2 0\n2\n1 3\n2\n"))
	f.Add([]byte("2 1\n2\n\n"))
	f.Add([]byte("1 0\n\n"))
	f.Add([]byte("3 2\n3\n3\n1 1\n"))
	f.Add([]byte("3 2\n2\n1 3\n1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if g := fuzzLoad(t, "fuzz.graph", FormatMETIS, data); g != nil {
			requireMETISRows(t, data, g)
		}
	})
}

// requireMETISRows reads the adjacency rows of a METIS file the loader
// accepted as g — the lines after the header, '%' comments skipped —
// and fails unless row v's 1-based ids are exactly g.Neighbors(v),
// with no repeats.
func requireMETISRows(t *testing.T, data []byte, g *Graph) {
	t.Helper()
	header, v := true, 0
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "%") || (header && line == "") {
			continue
		}
		if header {
			header = false
			continue
		}
		if v == g.N() {
			return
		}
		var row []int32
		for _, f := range strings.Fields(line) {
			id, _ := strconv.Atoi(f)
			row = append(row, int32(id-1))
		}
		slices.Sort(row)
		if !slices.Equal(row, g.Neighbors(v)) {
			t.Fatalf("row of vertex %d lists %v, its neighbours are %v", v, row, g.Neighbors(v))
		}
		v++
	}
}

// FuzzBinaryEdgeList: the binary loader under arbitrary bytes — same
// contract, seeded with TestBinaryEdgeListMalformed's inputs.
func FuzzBinaryEdgeList(f *testing.F) {
	bel := func(n, m uint64, ends ...uint32) []byte {
		b := binary.LittleEndian.AppendUint64([]byte(binaryEdgeListMagic), n)
		b = binary.LittleEndian.AppendUint64(b, m)
		for _, e := range ends {
			b = binary.LittleEndian.AppendUint32(b, e)
		}
		return b
	}
	valid := bel(4, 1, 0, 1)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(append([]byte("NOPE"), valid[4:]...))
	f.Add(valid[:len(valid)-4])
	f.Add(append(bel(4, 1, 0, 1), 1, 2, 3))
	f.Add(bel(4, 1, 0, 9))
	f.Add(bel(4, 1, 2, 2))
	f.Add(bel(4, 2, 0, 1, 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzLoad(t, "fuzz.bel", FormatBinaryEdgeList, data) })
}

// TestEdgeListReadersAgree runs each input through both text edge-list
// readers — ReadEdgeList over a reader and LoadCSRFile over a file — and
// requires the same verdict, and the same rows when both accept.
func TestEdgeListReadersAgree(t *testing.T) {
	cases := map[string]string{
		"plain":           "n 3\n0 1\n1 2\n",
		"m-header":        "n 3 m 2\n0 1\n1 2\n",
		"m-mismatch":      "n 3 m 1\n0 1\n1 2\n",
		"duplicate":       "n 3\n0 1\n1 0\n",
		"duplicate-same":  "n 3\n0 1\n0 1\n",
		"tab":             "n 3\n0\t1\n1 2\n",
		"spaces-and-tabs": "n 3\n0  \t 1\n 1 2 \n",
		"crlf":            "n 3\r\n0 1\r\n1 2\r\n",
		"comments":        "# c\n\nn 3\n# d\n0 1\n\n",
		"isolated":        "n 5\n",
		"three-fields":    "n 3\n0 1 2\n",
		"one-field":       "n 3\n01\n",
		"self-loop":       "n 3\n1 1\n",
		"out-of-range":    "n 3\n0 3\n",
		"negative":        "n 3\n-1 2\n",
		"no-header":       "0 1\n",
		"bad-header":      "x 3\n",
		"empty":           "",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := ReadEdgeList(strings.NewReader(in))
			want, _, loadErr := LoadCSRFile(writeTemp(t, "g.el", []byte(in)), FormatEdgeList, 1)
			if (err == nil) != (loadErr == nil) {
				t.Fatalf("ReadEdgeList err %v, LoadCSRFile err %v", err, loadErr)
			}
			if err == nil && !csrEqual(got, want) {
				t.Fatalf("readers built different graphs: %v and %v", got, want)
			}
		})
	}
}
