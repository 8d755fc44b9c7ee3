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
	"ablate-factor": "ec89cd369f040c3870cbff40833f7db5f5fcdfb0a7d8dbb6f17daec68727fdf3",
	"ablate-floor":  "52d86053e369f8e4ba5c1750e1bcca51f9958ea43f32d90936d693c6657cef70",
	"ablate-init":   "25e8ffd1bbf05fe2557a2dcd2a8262e4c60e0bfd4a848528eb3d8c5eca7afc6d",
	"ablate-jitter": "eca8222cc40b520c6327b4f2e46838cb0f9af3c485ae90252653668bdd4babc1",
	"ablate-loss":   "d7d33a6cee0f323d11a87619b36441261cb180e8f43c59beaf7eb461a8b67c38",
	"ablate-noise":  "d919b38af9e3c68bab51d9198592675b1a2c2fb927c0c6c891653ed15f91ffc2",
	"bits":          "48939bc97b0cea6717f194e78cc726bb8bf42d09a59528cd6c28be7504fdb7dd",
	"families":      "1b5768955bc27bc37181815bbe2001a7b4f47c2b4738d0287e85690f373cf1bc",
	"fig3":          "6d1db0d45b4d8afaec0853702cbd0c6095f1785122378807936941dab90932ec",
	"fig5":          "bd65ec8abe5c65bde0af8f8d86d1eb87bbfcce12a2d9b6c1e994e61b049c8c2e",
	"luby":          "d638a19b454312dbe69276f6735ff2945fdbbad8c3fabad4ef75c9b0e9b1150a",
	"thm1":          "f1d8005e96a99e276ddd45609de8e4cd76db79b67614dd93cc2cff3af79d81ae",
	"thm6":          "a67a2535c99d0c2fdf5d0ec45de9c53a022373bcccce346435a5a439029d05fe",
	"wakeup":        "1ac97ac1c5ce35639a9b43d7212c489f7604c614f342aeaa27dbba07de5b5045",
}

// goldenAllExperimentsDigest is the SHA-256 of the whole misbench
// output: the documents above joined by blank lines.
const goldenAllExperimentsDigest = "91c293aff25d298dd467e37ca4b5af1baae8ab1451f5129447c6d1da2ac6b6c6"

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
