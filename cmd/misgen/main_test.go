package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beepmis/internal/graph"
)

func TestGenerateAllTypes(t *testing.T) {
	for _, spec := range []string{
		"gnp:n=30,p=0.3",
		"grid:rows=4,cols=5",
		"torus:rows=4,cols=4",
		"complete:n=8",
		"cliques:n=100",
		"unitdisk:n=40,radius=0.2",
		"barabasialbert:n=50,m=2",
		"wattsstrogatz:n=40,k=4,beta=0.2",
		"tree:n=25",
		"path:n=10",
		"cycle:n=10",
		"star:n=10",
	} {
		var out bytes.Buffer
		if err := run([]string{"-graph", spec}, &out); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		g, err := graph.ReadEdgeList(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("%s: generated output does not parse: %v", spec, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
}

// TestGoldenEdgeListDigests pins the SHA-256 of misgen's output below
// its header comment for the twelve families of its former -type flag,
// at their former default parameters and seeds 1 and 7: the digests
// were taken from `misgen -type <family> -seed <seed>` before -graph
// replaced the per-family flags, so each spelling here builds that
// graph byte for byte.
func TestGoldenEdgeListDigests(t *testing.T) {
	for _, c := range []struct{ graph, seed1, seed7 string }{
		{"gnp:n=100,p=0.5",
			"e6f8371152b7d45b161b750e70097bf7e407079b1516a8a8f6db726ba78a73f0",
			"ceab0c3430a1dbc45447dcc3d7fa16ebf3149ce2bf851db9fa5ecf0f6faa52e9"},
		{"grid:rows=10,cols=10",
			"7c9191be8f922c25405991f2f0098015e6e834d92903611eff57d534eb123bd9",
			"7c9191be8f922c25405991f2f0098015e6e834d92903611eff57d534eb123bd9"},
		{"torus:rows=10,cols=10",
			"ef9e8917d687c518d6378baf5bfe5d9fdf2909ffd61d84c706b9abeb1e96a8a6",
			"ef9e8917d687c518d6378baf5bfe5d9fdf2909ffd61d84c706b9abeb1e96a8a6"},
		{"complete:n=100",
			"84ad5efd7ca3cc631fd77795d85c203a6e5b79c9e1f3a82d3fb4ee675b5cd3b7",
			"84ad5efd7ca3cc631fd77795d85c203a6e5b79c9e1f3a82d3fb4ee675b5cd3b7"},
		{"cliques:n=100",
			"1fc543f39f86b10bd2aefd8c3cde6866298a889a7628f31eb396cc668d15cae6",
			"1fc543f39f86b10bd2aefd8c3cde6866298a889a7628f31eb396cc668d15cae6"},
		{"unitdisk:n=100,radius=0.1",
			"9f3924011663efa39c7bc3c5774916c424a81972fbd66964e3009c9037eaadd9",
			"971e3751541e8f202e26b4033e8c586fdfc8dd5caa0a67dd9fe2da2e53f789bd"},
		{"barabasialbert:n=100,m=3",
			"1651e70159db9fd381d97e9a7c7036371c684652d62a09590fe75e9a3f4aae00",
			"eca60f1f982db208a947991e4e67d184f852970d0ad715317e95e41a2986db53"},
		{"wattsstrogatz:n=100,k=4,beta=0.1",
			"ae43e50607a1be201d398e6a7ebbeba355ce5927704776edc1df8f5fb008bfbb",
			"75d1dfb5f9ffa5c2b90c07b91e42f574576efd73f0fb202efa4113b2d56116b0"},
		{"tree:n=100",
			"5f6b3fc7a57fdb07d5664e2f43462ab05c616e6ee0e4e7cfaa20e34c92eff6e4",
			"1ce38241d760d2f9adec16278f00d3e0c2fa98c4e6d3dcaa06658966887c6b37"},
		{"path:n=100",
			"c97e5780ea6db1dcae474b233cd81cc59e19a634cdfead9c2ed5d61c57d3b8b2",
			"c97e5780ea6db1dcae474b233cd81cc59e19a634cdfead9c2ed5d61c57d3b8b2"},
		{"cycle:n=100",
			"76c74eaf502146fb8a6544e884084cb948e478152f0db1f0a1dc0b8c20e89267",
			"76c74eaf502146fb8a6544e884084cb948e478152f0db1f0a1dc0b8c20e89267"},
		{"star:n=100",
			"100bd08bdaf256e21c30fe96bc77462356ba9e352634f5434ca8a82c5b9d3c75",
			"100bd08bdaf256e21c30fe96bc77462356ba9e352634f5434ca8a82c5b9d3c75"},
	} {
		for seed, want := range map[string]string{"1": c.seed1, "7": c.seed7} {
			var out bytes.Buffer
			if err := run([]string{"-graph", c.graph, "-seed", seed}, &out); err != nil {
				t.Fatalf("%s seed %s: %v", c.graph, seed, err)
			}
			header, body, _ := strings.Cut(out.String(), "\n")
			if !strings.HasPrefix(header, "# ") {
				t.Fatalf("%s seed %s: first line %q is not the header comment", c.graph, seed, header)
			}
			sum := sha256.Sum256([]byte(body))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s seed %s: edge lines hash to %s, want %s", c.graph, seed, got, want)
			}
		}
	}
}

func TestGenerateToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := run([]string{"-graph", "path:n=5", "-out", path}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadEdgeList(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("g = %v", g)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-graph", "gnp:n=20,p=0.5", "-seed", "9"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-graph", "gnp:n=20,p=0.5", "-seed", "9"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different graphs")
	}
}

// TestHeaderStampsBuildSeed: the header comment names the seed the
// graph was drawn from — the seed= key over -seed — and no seed for a
// deterministic family.
func TestHeaderStampsBuildSeed(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-graph", "gnp:n=10,p=0.5", "-seed", "4"}, "# gnp:n=10,p=0.5 n=10 m=24 seed=4"},
		{[]string{"-graph", "gnp:n=10,p=0.5,seed=9"}, "# gnp:n=10,p=0.5,seed=9 n=10 m=24 seed=9"},
		{[]string{"-graph", "path:n=3", "-seed", "4"}, "# path:n=3 n=3 m=2"},
	} {
		var out bytes.Buffer
		if err := run(c.args, &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if header, _, _ := strings.Cut(out.String(), "\n"); header != c.want {
			t.Errorf("%v: header %q, want %q", c.args, header, c.want)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := [][]string{
		{"-graph", "nope"},
		{"-graph", "wattsstrogatz:n=10,k=3,beta=0.1"}, // odd k
		{"-graph", "barabasialbert:n=10,m=0"},
		{"-bad-flag"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestRejectsBadGraph: a -graph the scenario registry rejects fails
// with an error naming the parameter, before any output — -out's file
// is not even created.
func TestRejectsBadGraph(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.edges")
	for _, c := range []struct{ graph, want string }{
		{"gnp:n=50", "needs p="},
		{"gnp:n=-5,p=0.5", "n -5 < 1"},
		{"grid:rows=0,cols=3", "rows and cols"},
		{"unitdisk:n=50,radius=-1", "radius -1"},
		{"cycle:n=2", "n ≥ 3"},
		{"gnp:n=20,p=1.5", "p 1.5"},
		{"gnp:n=20,p=NaN", "GraphSpec.p"},
	} {
		var out bytes.Buffer
		err := run([]string{"-graph", c.graph, "-out", path}, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-graph %s: err = %v, want one naming %q", c.graph, err, c.want)
		}
		if _, statErr := os.Stat(path); out.Len() != 0 || statErr == nil {
			t.Errorf("-graph %s: wrote output (stdout %q, -out file exists: %v)", c.graph, out.String(), statErr == nil)
		}
	}
}
