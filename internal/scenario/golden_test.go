package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"beepmis/internal/graph"
	"beepmis/internal/sim"
)

// goldenReportDigests pins the SHA-256 of scenario.Run's report bytes
// for every committed spec, checked at two trial-pool sizes, the larger
// one under a recording OnTrial hook. Graph construction, trial storage
// reuse, the trial pool and the engine behind each unit are all free to
// change how they work; none of them may change a byte of a report.
// The two large sparse specs and the paper-scale Figure 3 are skipped
// under -short.
var goldenReportDigests = map[string]string{
	"crash-wake.json":       "2bb43b2168fbf7976a8c8fd215bb9a51a1d885c5b989417eefd342cf6dd569b9",
	"file-ingest.json":      "4fa4f753666d71b05d1d01efcbd54092c9d56978042eeef547d76fabcdbc4cd9",
	"large-sparse.json":     "7c488f8c8c761d6ae391d1bb41fd2793674f5d9341f038f3745db9bef57690e4",
	"load-tiny.json":        "d963a53c58bc781bdf1d957c0d56447a6764bab2cb5d60aadfe1f9416ded6a43",
	"noisy-async.json":      "20b7d6341a4ba3356c006b4fb83bd5ef4bf6081d97a313fd496fedb1604d62ca",
	"paper/fig3.json":       "569a6bfe11517c5bf6d367a8df9b61e1ac0bcc219ca6a2ab2ac72b7042d41f31",
	"paper/fig5.json":       "c99dd8a3d66a12bd07ee83e69877f026118bea9cee3d7f11a41dce38c162e708",
	"paper/thm1.json":       "96d14a2f36ec02ea3559b179859675ab1c42ed15a5fd9b3f41ccc079177672c8",
	"quickstart.json":       "e23b4e1fa859425c458bc6cb7388723d094fdeb80177d8a4b1b63950979ab50c",
	"rmat-sparse.json":      "227b008d09f02689d056ad61ec8084efc8cbfd347d5f7c8f032d7aa0a0e70e26",
	"sweep-algorithms.json": "4f1e975f0be3639bf69ede59e99cd00692ca2ac1813ba8204c618ac5c4f5f5ff",
}

// goldenLargeScenarios are the committed specs too slow for -short.
var goldenLargeScenarios = map[string]bool{"large-sparse.json": true, "rmat-sparse.json": true, "paper/fig3.json": true}

// goldenInlineSpecs pins report digests of inline specs that exercise
// each way a unit can reach the round loop: a sparse G(n, p) above the
// matrix density threshold, a kernel-less algorithm on a dense graph,
// both again under each of the "scalar" and "bitset" pins, crash and
// wake schedules on a sparse graph, and per-edge beep loss. Engine pins
// are stripped from the canonical spec, so a pinned spec's report must
// match its unpinned twin byte for byte. The family rows pin one spec
// for each family no committed scenario uses, each with its own
// algorithm or fault feature; the last two pin the feedback block's
// per-step factor range and per-node initial probabilities.
var goldenInlineSpecs = []struct {
	name, doc, digest string
}{
	{"sparse-auto",
		`{"graph":{"family":"gnp","n":3000,"p":0.002},"algorithm":"feedback","trials":4,"seed":5}`,
		"a8806672512bf36a62b4e409f41e3ae04bc8e6920768a4cb5b6f106099164592"},
	{"sparse-scalar",
		`{"graph":{"family":"gnp","n":3000,"p":0.002},"algorithm":"feedback","trials":4,"seed":5,"engine":"scalar"}`,
		"a8806672512bf36a62b4e409f41e3ae04bc8e6920768a4cb5b6f106099164592"},
	{"fixed-dense-auto",
		`{"graph":{"family":"gnp","n":300,"p":0.5},"algorithm":"fixed","fixed_p":0.02,"trials":4,"seed":5}`,
		"09ce051a4b366f9bc326b81d3823631da57d37334008189fef911780e0624194"},
	{"fixed-dense-bitset",
		`{"graph":{"family":"gnp","n":300,"p":0.5},"algorithm":"fixed","fixed_p":0.02,"trials":4,"seed":5,"engine":"bitset"}`,
		"09ce051a4b366f9bc326b81d3823631da57d37334008189fef911780e0624194"},
	{"sparse-bitset",
		`{"graph":{"family":"gnp","n":3000,"p":0.002},"algorithm":"feedback","trials":4,"seed":5,"engine":"bitset"}`,
		"a8806672512bf36a62b4e409f41e3ae04bc8e6920768a4cb5b6f106099164592"},
	{"fixed-dense-scalar",
		`{"graph":{"family":"gnp","n":300,"p":0.5},"algorithm":"fixed","fixed_p":0.02,"trials":4,"seed":5,"engine":"scalar"}`,
		"09ce051a4b366f9bc326b81d3823631da57d37334008189fef911780e0624194"},
	{"crash-wake-sparse",
		`{"graph":{"family":"gnp","n":3000,"p":0.002},"algorithm":"feedback","trials":3,"seed":9,"wake_window":10,"crash_at_round":{"2":[1,2,3],"4":[100]}}`,
		"70a250d519c142ce4790757a652dad177ca5e80ae8e0d9d38d61259418b3e693"},
	{"beep-loss",
		`{"graph":{"family":"gnp","n":200,"p":0.1},"algorithm":"feedback","trials":4,"seed":3,"beep_loss":0.05}`,
		"2c52f74856bdff07ebcd9da4eeb9c2fa782f262cd0fc16e84e8c7f61b56a5a13"},
	{"complete",
		`{"graph":{"family":"complete","n":60},"algorithm":"feedback","trials":3,"seed":11}`,
		"9d577559a1544513b3b74e4bdb6ea5a5914984d88dd000cc84e962143ed3c42a"},
	{"cliques",
		`{"graph":{"family":"cliques","n":300},"algorithm":"afek","trials":3,"seed":12}`,
		"eb3425a8b0231fc0426ff2d1ee2396fa592726810745ad3882bb9337304af4a3"},
	{"torus",
		`{"graph":{"family":"torus","rows":9,"cols":11},"algorithm":"globalsweep","trials":3,"seed":13}`,
		"dfff6571d6b18ffe2490521b7be21d7743518ac1a7d88738ead89190a719c556"},
	{"path",
		`{"graph":{"family":"path","n":150},"algorithm":"feedback","trials":3,"seed":14,"wake_window":6}`,
		"63b80d67dc191f5afdc95a9c94375b4a09ec14df9ab5a6809c634fe268417b83"},
	{"cycle",
		`{"graph":{"family":"cycle","n":151},"algorithm":"fixed","fixed_p":0.3,"trials":3,"seed":15}`,
		"afb46613cc304f897f4481d8f9e63022e14d829ffa109051997683ecf1342367"},
	{"star",
		`{"graph":{"family":"star","n":120},"algorithm":"feedback","trials":3,"seed":16,"beep_loss":0.05}`,
		"d812ba1fbec06b31ea4972f5e2f666f63c1d1bfb60989c3679d0bcb9e43c9acc"},
	{"tree",
		`{"graph":{"family":"tree","n":200},"algorithm":"feedback","trials":3,"seed":17}`,
		"3fa6fdc7ed0fa01535b2ae0271df19ec63bb280a2b74e73977db76e86861803c"},
	{"completebinarytree",
		`{"graph":{"family":"completebinarytree","n":127},"algorithm":"afek","trials":3,"seed":18}`,
		"9f60e7e799cdf1d4bd76d44d20c612f190f3b41ab0a273097bc487a63c3461e2"},
	{"barabasialbert",
		`{"graph":{"family":"barabasialbert","n":200,"m":3},"algorithm":"feedback","trials":3,"seed":19,"faults":{"loss":0.05,"spurious":0.02}}`,
		"fe3e97de097b997d11660dbb7aa7b1fe60a18d5435fd567ab2f566e5bcaae230"},
	{"wattsstrogatz",
		`{"graph":{"family":"wattsstrogatz","n":200,"k":6,"beta":0.2},"algorithm":"globalsweep","trials":3,"seed":20}`,
		"a5872559ca57ffb0c5cf920ff29a9ac41da87b9e37ba74eb23150b1a73f9d2df"},
	{"hypercube",
		`{"graph":{"family":"hypercube","d":7},"algorithm":"feedback","trials":3,"seed":21,"faults":{"wake":{"kind":"degree","window":8}}}`,
		"565bca2b8669c841d09f5269a80e860b526798f2c0a4a1cf8e4c6d3446e6140f"},
	{"randomregular",
		`{"graph":{"family":"randomregular","n":200,"d":5,"seed":7},"algorithm":"feedback","trials":3,"seed":22,"crash_at_round":{"3":[1,2]}}`,
		"b8ad818e47c236f9cb2365d2d32f0fbc7bf1f473c4fe60eab424a66bfa9f85ea"},
	{"configmodel",
		`{"graph":{"family":"configmodel","n":300,"edges":1500},"algorithm":"feedback","trials":3,"seed":23,"faults":{"outages":[{"node":0,"from":2,"for":3,"reset":true}]}}`,
		"c177153c8da13aeb83f7a3ac8add0553c46bd4f9f17e41982521b304ff675790"},
	{"feedback-factor-max",
		`{"graph":{"family":"gnp","n":200,"p":0.3},"algorithm":"feedback","feedback":{"factor":1.5,"factor_max":3},"trials":3,"seed":24}`,
		"36184bb02cdd73ec3efe2960d1891fef234d70bda5addc5c0486e771989fe378"},
	{"feedback-initial-p-by-id",
		`{"graph":{"family":"grid","rows":12,"cols":12},"algorithm":"feedback","feedback":{"initial_p_by_id":[0.5,0.25,0.125]},"trials":3,"seed":25,"faults":{"outages":[{"node":5,"from":2,"for":3,"reset":true}]}}`,
		"4a12ccc1d7cf8abe910099f6d671000ef6f830abbac52da9f939f4e6302618bb"},
}

// reportDigest runs c at the given trial-pool size and returns the
// SHA-256 of its report bytes. At four workers it runs c under a
// recording OnTrial hook, which must see every (unit, trial) exactly
// once and leave every report byte as it is.
func reportDigest(t *testing.T, c *Compiled, workers int) string {
	t.Helper()
	opts := RunOptions{Workers: workers}
	var calls sync.Map // [2]int{unit, trial} → *atomic.Int32
	if workers == 4 {
		opts.OnTrial = func(unit, trial int, g *graph.Graph, res *sim.Result, _ int) {
			if g == nil || res == nil || len(res.InMIS) != g.N() {
				t.Errorf("unit %d trial %d: hook saw graph %v and result %v", unit, trial, g != nil, res != nil)
			}
			n, _ := calls.LoadOrStore([2]int{unit, trial}, new(atomic.Int32))
			n.(*atomic.Int32).Add(1)
		}
	}
	rep, err := Run(context.Background(), c, opts)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if opts.OnTrial != nil {
		for unit := range c.Units {
			for trial := range c.Spec.Trials {
				n, ok := calls.Load([2]int{unit, trial})
				if !ok || n.(*atomic.Int32).Load() != 1 {
					t.Fatalf("OnTrial ran for unit %d trial %d %v times, want once", unit, trial, n)
				}
			}
		}
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
// both sampling regimes and on every engine spelling that reads a
// scratch-built graph (the matrix, or the graph's own rows), at
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
