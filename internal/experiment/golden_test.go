package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenExperimentDigests pins the SHA-256 of every registered
// experiment's JSON output at Config{Seed: 1, Trials: 5, MaxN: 300} —
// the configuration of `misbench -exp all -trials 5 -maxn 300 -format
// json`, whose whole output is these documents in registry order.
// Engines, shards and trial pools may change how they work; none of
// them may change a byte of a table.
var goldenExperimentDigests = map[string]string{
	"ablate-factor": "265775c60ae00c089a1d992bd59fa529e52daaccc27b6c6a18b57bdd0fe13db7",
	"ablate-floor":  "b1372f8f857ed0fd08fe92160059f0642574e5eac2a07aa7c81580f258d74aff",
	"ablate-init":   "e2a4700ca12c2521b9cfd6ded724bcf1c912e56d0fabd9b68c8ffe30abf59bfe",
	"ablate-jitter": "6d2755e6b88197e9aa19c8cfc85a9b18610bfe552117001253045625d6ca73ba",
	"ablate-loss":   "852ebd111af871f2509acb5d63deede91bf71e12f60d547b562ef4205a11c413",
	"ablate-noise":  "e95fa29f412c47bc7b54d78b3c580ace833622e64ef77c1e32d48a5b6ff7cd6f",
	"bits":          "af08d33a609fcd501f0b379ab591976814e0e010107a66d8f0c02f9f6a2338ec",
	"families":      "0b9f10eaa21f5c0998e3d74b466f9b79ea3e97a68669f6bc65eefe828d758e24",
	"fig3":          "589af2ebce8601d95e07729578496dfef76ea55a9594d715dc3191d405488b69",
	"fig5":          "21617b259abf17ade14caf22feb3b0d77fc6c8e92c2916f3cd0f431e151b3020",
	"luby":          "5358f2531113f031169de508f805b4a6fd19bc86a808f2748b1a164673069cfe",
	"thm1":          "f245ab777c82ebb7e1d891888d34cd42569759dc2bbc0159d7b7b762a89157bc",
	"thm6":          "db1d50b75b0f867e7038aa23e6a7a3520620fb2aefcdabca1157ed5f7e3a3375",
	"wakeup":        "86dde44c40623bf9b6782b3b7c338c81a674ebd6a6b545ab33fcd577fe5b706d",
}

// goldenAllExperimentsDigest is the SHA-256 of the whole misbench
// output: the documents above joined by blank lines.
const goldenAllExperimentsDigest = "d3b286988049c8ce4ec9ee1bb46e307550371d4c27c86e6b5bb969cbaa9bb1bd"

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
