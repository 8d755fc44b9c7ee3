package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"beepmis/internal/scenario"
)

// goldenExperimentDigests pins the SHA-256 of every registered
// experiment's JSON output at Config{Seed: 1, Trials: 5, MaxN: 300} —
// the configuration of `misbench -exp all -trials 5 -maxn 300 -format
// json`, whose whole output is these documents in registry order.
// Engines, shards and trial pools may change how they work; none of
// them may change a byte of a table.
var goldenExperimentDigests = map[string]string{
	"ablate-factor": "e4dac50f0f52baf047a673c66cb2f9661bb13fe45ce0fbd0ac00f7e6d0932a42",
	"ablate-floor":  "c38b4040213093b0ce7e3cc1b07c803238f63d27a358f394e9a0517b93d3a5db",
	"ablate-init":   "e3b4e68994bdba041dcc501999038132eebdaaceba2603f9f71477aade453201",
	"ablate-jitter": "2d84cc93fe67ce6dc11154dc8cb6e73eae9f072d355198e63b070ed2b4c9c684",
	"ablate-loss":   "2c780fe24f01ca706e8da800f75a9e266854d69435eb56273a938c7bc314419a",
	"ablate-noise":  "4d60f7e2fd0efea9b596b82116ac11c7f090c36f102bdde7cf8fa8c1fce7882b",
	"bits":          "af08d33a609fcd501f0b379ab591976814e0e010107a66d8f0c02f9f6a2338ec",
	"families":      "f03fc50188a19030fa653eebfb028d625212d0381ef5c27fe19341ba5bfdf357",
	"fig3":          "318ac25ef6fa5b2954c24f17e9b254603f0d6fc78340fb241ba0ce8929f39ced",
	"fig5":          "505ee3c9004bc2d04b32befca005741ca7afd7cb4ab843bd177f6792a0c34a9e",
	"luby":          "0082257db525a36d946b188de2c754c1422621e684d2c594224fad5c4b14dd41",
	"thm1":          "f1d8005e96a99e276ddd45609de8e4cd76db79b67614dd93cc2cff3af79d81ae",
	"thm6":          "ed04b12ded9d6427035f5dd6e96586d308ae3a855c5863cf80820c6b3ad2bd95",
	"wakeup":        "d61a4f55cab52a53747532ea73a74c00bf25618871323b3f1026bd0ebbc87822",
}

// goldenAllExperimentsDigest is the SHA-256 of the whole misbench
// output: the documents above joined by blank lines.
const goldenAllExperimentsDigest = "76bd9e9518703727db2d134a3f758310d5ad477cec0d1880f6ebceeea5fb6a90"

func TestGoldenExperimentDigests(t *testing.T) {
	var all bytes.Buffer
	for i, id := range IDs() {
		res, err := Run(id, Config{Seed: 1, Trials: 5, MaxN: 300})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var b bytes.Buffer
		if err := res.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			all.WriteByte('\n')
		}
		all.Write(b.Bytes())
		sum := sha256.Sum256(b.Bytes())
		if got, want := hex.EncodeToString(sum[:]), goldenExperimentDigests[id]; got != want {
			t.Errorf("%s: json sha256 %s, want %s", id, got, want)
		}
	}
	if len(goldenExperimentDigests) != len(IDs()) {
		t.Errorf("%d digests pinned for %d registered experiments", len(goldenExperimentDigests), len(IDs()))
	}
	sum := sha256.Sum256(all.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenAllExperimentsDigest {
		t.Errorf("all experiments: sha256 %s, want %s", got, goldenAllExperimentsDigest)
	}
}

// TestPaperScenarioFiles pins scenarios/paper: each committed file is
// the spec its experiment runs at Config{Seed: 1}, so misrun and misd
// reproduce the paper-scale figure from it, and its content hash is the
// experiment's.
func TestPaperScenarioFiles(t *testing.T) {
	for file, build := range map[string]func(Config) scenario.Spec{
		"fig3.json": fig3Spec,
		"fig5.json": fig5Spec,
		"thm1.json": thm1Spec,
	} {
		doc, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "paper", file))
		if err != nil {
			t.Fatal(err)
		}
		c, err := scenario.ParseCompiledBytes(doc)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		spec := build(Config{Seed: 1})
		want, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if c.Hash != want {
			t.Errorf("%s hashes to %s; its experiment's spec at seed 1 hashes to %s", file, c.Hash, want)
		}
	}
}
