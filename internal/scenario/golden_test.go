package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// goldenReportDigests pins the SHA-256 of scenario.Run's report bytes
// for committed specs, checked at two trial-pool sizes. Graph
// construction, trial storage reuse and the trial pool are all free to
// change how they work; none of them may change a byte of a report.
var goldenReportDigests = map[string]string{
	"load-tiny.json":        "19f79af899cc5fbc92c054ed3f2437d613bd3d688faf28e833aa8c4fc0ee94ad",
	"sweep-algorithms.json": "e4c95a0c129e7290321aecf2b7e318e24bb38444879a92f899e9e13722e5a0da",
	"quickstart.json":       "8958a8f8b9763ffb2b54c8993b1cc07ba680cf86ad93acead1a974417a7b93a3",
}

func TestGoldenReportDigests(t *testing.T) {
	for file, want := range goldenReportDigests {
		doc, err := os.ReadFile(filepath.Join("..", "..", "scenarios", file))
		if err != nil {
			t.Fatal(err)
		}
		c, err := ParseCompiledBytes(doc)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, workers := range []int{1, 4} {
			rep, err := Run(context.Background(), c, RunOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", file, workers, err)
			}
			b, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s workers=%d: report sha256 %s, want %s", file, workers, got, want)
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
