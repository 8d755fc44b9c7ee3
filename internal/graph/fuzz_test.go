package graph

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// FuzzReadEdgeList asserts the parser never panics and that anything it
// accepts is a valid graph that round-trips through WriteEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("n 3\n0 1\n1 2\n")
	f.Add("# comment\nn 0\n")
	f.Add("n 5\n")
	f.Add("garbage")
	f.Add("n 2\n0 1\n0 1\n")
	f.Add("n 1000000000\n")
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			t.Skip()
		}
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v (input %q)", err, input)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed graph: %v vs %v", g2, g)
		}
	})
}

// FuzzCSR feeds one adversarial edge stream to Builder and to the
// adjacency-list reference it replaced: the fuzzer decodes raw bytes as
// (n, endpoint pairs), including out-of-range and self-loop garbage
// both reject with the same verdict, and duplicates both dedupe. The
// built graphs must agree on N, M and every row, and pass Validate.
func FuzzCSR(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 1, 2})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(5), []byte{0, 1, 0, 1, 1, 0, 4, 4, 9, 2})
	f.Add(uint8(65), []byte{0, 64, 64, 1, 33, 32})
	f.Fuzz(func(t *testing.T, n uint8, edges []byte) {
		if len(edges) > 1<<12 {
			t.Skip()
		}
		b, ref := NewBuilder(int(n)), newBuilderReference(int(n))
		for i := 0; i+3 < len(edges); i += 4 {
			u := int(binary.LittleEndian.Uint16(edges[i:]))
			v := int(binary.LittleEndian.Uint16(edges[i+2:]))
			err, refErr := b.AddEdge(u, v), ref.AddEdge(u, v)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("AddEdge(%d, %d): err %v, reference err %v", u, v, err, refErr)
			}
		}
		assertSameRows(t, "Builder", b.Build(), ref.Build())
	})
}
