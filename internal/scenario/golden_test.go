package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// goldenReportDigests pins the SHA-256 of scenario.Run's report bytes
// for every committed spec, checked at two trial-pool sizes. Graph
// construction, trial storage reuse, the trial pool and the engine
// behind each unit are all free to change how they work; none of them
// may change a byte of a report. The two large sparse specs are skipped
// under -short.
var goldenReportDigests = map[string]string{
	"crash-wake.json":       "2bb43b2168fbf7976a8c8fd215bb9a51a1d885c5b989417eefd342cf6dd569b9",
	"file-ingest.json":      "4fa4f753666d71b05d1d01efcbd54092c9d56978042eeef547d76fabcdbc4cd9",
	"large-sparse.json":     "7eeefa23b3ff7dfa7f381fc1ded6cd70dbbe70ec87f10efe4eb380b885fb7740",
	"load-tiny.json":        "19f79af899cc5fbc92c054ed3f2437d613bd3d688faf28e833aa8c4fc0ee94ad",
	"noisy-async.json":      "20b7d6341a4ba3356c006b4fb83bd5ef4bf6081d97a313fd496fedb1604d62ca",
	"quickstart.json":       "8958a8f8b9763ffb2b54c8993b1cc07ba680cf86ad93acead1a974417a7b93a3",
	"rmat-sparse.json":      "227b008d09f02689d056ad61ec8084efc8cbfd347d5f7c8f032d7aa0a0e70e26",
	"sweep-algorithms.json": "e4c95a0c129e7290321aecf2b7e318e24bb38444879a92f899e9e13722e5a0da",
}

// goldenLargeScenarios are the committed specs too slow for -short.
var goldenLargeScenarios = map[string]bool{"large-sparse.json": true, "rmat-sparse.json": true}

// goldenInlineSpecs pins report digests of inline specs that exercise
// each way a unit can reach the round loop: a sparse G(n, p) above the
// matrix density threshold, a kernel-less algorithm on a dense graph,
// both again under each of the "scalar" and "bitset" pins, crash and
// wake schedules on a sparse graph, and per-edge beep loss. Engine pins
// are stripped from the canonical spec, so a pinned spec's report must
// match its unpinned twin byte for byte.
var goldenInlineSpecs = []struct {
	name, doc, digest string
}{
	{"sparse-auto",
		`{"graph":{"family":"gnp","n":3000,"p":0.002},"algorithm":"feedback","trials":4,"seed":5}`,
		"43440f57c0d8443f9f88d0d446c594f5198dcc7115f6db702884f04acab40484"},
	{"sparse-scalar",
		`{"graph":{"family":"gnp","n":3000,"p":0.002},"algorithm":"feedback","trials":4,"seed":5,"engine":"scalar"}`,
		"43440f57c0d8443f9f88d0d446c594f5198dcc7115f6db702884f04acab40484"},
	{"fixed-dense-auto",
		`{"graph":{"family":"gnp","n":300,"p":0.5},"algorithm":"fixed","fixed_p":0.02,"trials":4,"seed":5}`,
		"dec4d9aadf4a434e068a539142cd8248939f47db08ca5e15eea792182f17abbe"},
	{"fixed-dense-bitset",
		`{"graph":{"family":"gnp","n":300,"p":0.5},"algorithm":"fixed","fixed_p":0.02,"trials":4,"seed":5,"engine":"bitset"}`,
		"dec4d9aadf4a434e068a539142cd8248939f47db08ca5e15eea792182f17abbe"},
	{"sparse-bitset",
		`{"graph":{"family":"gnp","n":3000,"p":0.002},"algorithm":"feedback","trials":4,"seed":5,"engine":"bitset"}`,
		"43440f57c0d8443f9f88d0d446c594f5198dcc7115f6db702884f04acab40484"},
	{"fixed-dense-scalar",
		`{"graph":{"family":"gnp","n":300,"p":0.5},"algorithm":"fixed","fixed_p":0.02,"trials":4,"seed":5,"engine":"scalar"}`,
		"dec4d9aadf4a434e068a539142cd8248939f47db08ca5e15eea792182f17abbe"},
	{"crash-wake-sparse",
		`{"graph":{"family":"gnp","n":3000,"p":0.002},"algorithm":"feedback","trials":3,"seed":9,"wake_window":10,"crash_at_round":{"2":[1,2,3],"4":[100]}}`,
		"1b6edb176d77a21b5cb5665fae0216c1e5e2517d08c7a110e4e80b314dc66758"},
	{"beep-loss",
		`{"graph":{"family":"gnp","n":200,"p":0.1},"algorithm":"feedback","trials":4,"seed":3,"beep_loss":0.05}`,
		"8ce83b91093a68692dff13086a41698e40aaad5ea1c1cce0e5d8df676b417570"},
}

// reportDigest runs c at the given trial-pool size and returns the
// SHA-256 of its report bytes.
func reportDigest(t *testing.T, c *Compiled, workers int) string {
	t.Helper()
	rep, err := Run(context.Background(), c, RunOptions{Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGoldenReportDigests(t *testing.T) {
	// file-ingest.json names its edge list relative to the repository
	// root, as misrun and misd resolve it.
	t.Chdir(filepath.Join("..", ".."))
	files := make([]string, 0, len(goldenReportDigests))
	for file := range goldenReportDigests {
		files = append(files, file)
	}
	sort.Strings(files)
	for _, file := range files {
		if testing.Short() && goldenLargeScenarios[file] {
			continue
		}
		doc, err := os.ReadFile(filepath.Join("scenarios", file))
		if err != nil {
			t.Fatal(err)
		}
		c, err := ParseCompiledBytes(doc)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, workers := range []int{1, 4} {
			if got, want := reportDigest(t, c, workers), goldenReportDigests[file]; got != want {
				t.Errorf("%s workers=%d: report sha256 %s, want %s", file, workers, got, want)
			}
		}
	}
	for _, tc := range goldenInlineSpecs {
		c, err := ParseCompiledBytes([]byte(tc.doc))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, workers := range []int{1, 4} {
			if got := reportDigest(t, c, workers); got != tc.digest {
				t.Errorf("%s workers=%d: report sha256 %s, want %s", tc.name, workers, got, tc.digest)
			}
		}
	}
}

// TestScratchTrialsMatchAcrossWorkers runs per-trial G(n,p) units, in
// both sampling regimes and on every engine backend that reads a
// scratch-built graph (the matrix, the CSR, the adjacency lists), at
// four trial workers and at one: the reports must be byte-identical.
// Under -race this is also the check that no two concurrent trials
// share a graph.Scratch and that none is reused while a trial still
// reads its graph.
func TestScratchTrialsMatchAcrossWorkers(t *testing.T) {
	var want []byte
	for _, engine := range []string{"columnar", "sparse", "scalar"} {
		for _, workers := range []int{1, 4} {
			doc := `{"graph":{"family":"gnp"},"algorithm":"feedback","trials":9,"seed":3,"engine":"` + engine + `",
				"sweep":{"n":[150,40],"p":[0.05,0.5]}}`
			c, err := mustParse(t, doc).Compile()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(context.Background(), c, RunOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			b, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = b
			} else if string(b) != string(want) {
				t.Fatalf("engine %s workers %d: report differs from engine columnar workers 1", engine, workers)
			}
		}
	}
}
