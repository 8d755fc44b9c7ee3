package scenario

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"beepmis/internal/graph"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
)

func mustParse(t *testing.T, doc string) *Spec {
	t.Helper()
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("Parse(%s): %v", doc, err)
	}
	return s
}

// TestParseRejectsMalformed pins Parse's verdict on each spec: a
// malformed spec fails with an error naming the problem. Rows with an
// empty want are former engine conflicts that every engine now runs —
// shards under a legacy pin, beep_loss on any engine, a kernel-less
// algorithm pinned to columnar — and must parse.
func TestParseRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error; "" means the spec parses
	}{
		{"empty", ``, "parse"},
		{"not json", `{]`, "parse"},
		{"unknown field", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","trails":3}`, "trails"},
		{"trailing doc", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback"} {}`, "trailing"},
		{"unknown family", `{"graph":{"family":"smallworld","n":10},"algorithm":"feedback"}`, "unknown graph family"},
		{"unknown algorithm", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"quantum"}`, "unknown algorithm"},
		{"n too large", `{"graph":{"family":"gnp","n":99999999,"p":0.5},"algorithm":"feedback"}`, "outside"},
		{"n zero", `{"graph":{"family":"gnp","n":0,"p":0.5},"algorithm":"feedback"}`, "outside"},
		{"p negative", `{"graph":{"family":"gnp","n":10,"p":-0.5},"algorithm":"feedback"}`, "outside"},
		{"p above one", `{"graph":{"family":"gnp","n":10,"p":1.5},"algorithm":"feedback"}`, "outside"},
		{"too many edges", `{"graph":{"family":"gnp","n":1000000,"p":0.9},"algorithm":"feedback"}`, "edges"},
		{"dense pin infeasible", `{"graph":{"family":"gnp","n":1000000,"p":0.00001},"algorithm":"feedback","engine":"bitset"}`, "dense adjacency matrix"},
		// Auto plans this unit on the CSR (its matrix would be 125 GB):
		// 2.75·10⁸ expected edges price at ≈4.4 GB of adjacency plus CSR,
		// just past MaxUnitMemory. At p = 0.00053 (2.65·10⁸ edges,
		// ≈4.27 GB) the same spec is admitted.
		{"sparse plan over memory bound", `{"graph":{"family":"gnp","n":1000000,"p":0.00055},"algorithm":"feedback"}`, "CSR edge array"},
		{"negative shards", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","shards":-1}`, "shards"},
		{"shards on scalar", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","engine":"scalar","shards":2}`, ""},
		{"loss on bitset", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","engine":"bitset","beep_loss":0.1}`, ""},
		{"loss on sparse", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","engine":"sparse","beep_loss":0.1}`, ""},
		{"loss out of range", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","beep_loss":1}`, "beep_loss"},
		{"trials too large", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","trials":1000001}`, "trials"},
		{"bad engine", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","engine":"warp"}`, "engine"},
		{"columnar without kernel", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"fixed","engine":"columnar"}`, ""},
		{"crash round zero", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","crash_at_round":{"0":[1]}}`, "1-based"},
		{"crash node range", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","crash_at_round":{"2":[10]}}`, "outside"},
		{"crash duplicate", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","crash_at_round":{"2":[3],"4":[3]}}`, "twice"},
		{"negative wake", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","wake_window":-1}`, "wake_window"},
		{"sweep too big", `{"graph":{"family":"gnp","p":0.5},"algorithm":"feedback","sweep":{"n":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30],"p":[0.1,0.2,0.3],"algorithm":["feedback","globalsweep","afek"]}}`, "units"},
		{"sweep p on grid", `{"graph":{"family":"grid","rows":4,"cols":4},"algorithm":"feedback","sweep":{"p":[0.1,0.2]}}`, "not parameterised by p"},
		{"sweep n on hypercube", `{"graph":{"family":"hypercube","d":4},"algorithm":"feedback","sweep":{"n":[16,32]}}`, "not parameterised by n"},
		{"hypercube too deep", `{"graph":{"family":"hypercube","d":40},"algorithm":"feedback"}`, "dimension"},
		{"ba attachment", `{"graph":{"family":"barabasialbert","n":100,"m":0},"algorithm":"feedback"}`, "attachment"},
		{"ws odd k", `{"graph":{"family":"wattsstrogatz","n":100,"k":3,"beta":0.1},"algorithm":"feedback"}`, "even"},
		{"unitdisk radius", `{"graph":{"family":"unitdisk","n":100,"radius":0},"algorithm":"feedback"}`, "radius"},
		{"grid no dims", `{"graph":{"family":"grid"},"algorithm":"feedback"}`, "rows"},
		{"stray radius on gnp", `{"graph":{"family":"gnp","n":10,"p":0.5,"radius":0.3},"algorithm":"feedback"}`, "not used by family"},
		{"stray rows on gnp", `{"graph":{"family":"gnp","n":10,"p":0.5,"rows":7},"algorithm":"feedback"}`, "not used by family"},
		{"stray n on grid", `{"graph":{"family":"grid","rows":3,"cols":3,"n":9},"algorithm":"feedback"}`, "not used by family"},
		{"seed on deterministic family", `{"graph":{"family":"hypercube","d":4,"seed":7},"algorithm":"feedback"}`, "deterministic family"},
		{"regular odd product", `{"graph":{"family":"randomregular","n":5,"d":3},"algorithm":"feedback"}`, "even"},
		{"faults unknown field", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","faults":{"lossy":0.1}}`, "lossy"},
		{"faults loss range", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","faults":{"loss":1.5}}`, "loss"},
		{"faults spurious range", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","faults":{"spurious":-0.1}}`, "spurious"},
		{"faults wake kind", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","faults":{"wake":{"kind":"sunrise","window":3}}}`, "wake schedule"},
		{"faults wake window", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","faults":{"wake":{"kind":"uniform"}}}`, "window"},
		{"faults wake node range", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","faults":{"wake":{"kind":"explicit","at":{"2":[10]}}}}`, "outside"},
		{"faults wake round zero", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","faults":{"wake":{"kind":"explicit","at":{"0":[1]}}}}`, "1-based"},
		{"faults outage node range", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","faults":{"outages":[{"node":10,"from":1,"for":2}]}}`, "outside"},
		{"faults outage duration", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","faults":{"outages":[{"node":3,"from":1,"for":0}]}}`, "duration"},
		{"faults outage overlap", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","faults":{"outages":[{"node":3,"from":1,"for":4},{"node":3,"from":2,"for":1}]}}`, "overlapping"},
		{"faults wake vs wake_window", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","wake_window":4,"faults":{"wake":{"kind":"uniform","window":3}}}`, "pick one"},
		{"faults outage vs crash", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","crash_at_round":{"2":[3]},"faults":{"outages":[{"node":3,"from":4,"for":1}]}}`, "node 3"},
		{"faults sweep node range", `{"graph":{"family":"gnp","p":0.5},"algorithm":"feedback","sweep":{"n":[64,8]},"faults":{"outages":[{"node":20,"from":1,"for":2}]}}`, "outside"},
		{"factor_max below factor", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","feedback":{"factor":3,"factor_max":2}}`, "factor range"},
		{"factor_max below default factor", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","feedback":{"factor_max":1.5}}`, "factor range"},
		{"initial_p_by_id empty", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","feedback":{"initial_p_by_id":[]}}`, "initial_p_by_id has 0 entries"},
		{"initial_p_by_id too long", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","feedback":{"initial_p_by_id":[` + strings.Repeat("0.5,", 64) + `0.5]}}`, "initial_p_by_id has 65 entries"},
		{"initial_p_by_id zero", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","feedback":{"initial_p_by_id":[0.5,0]}}`, "initial_p_by_id[1]"},
		{"initial_p_by_id negative", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","feedback":{"initial_p_by_id":[-0.25]}}`, "initial_p_by_id[0]"},
		{"initial_p_by_id above max_p", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","feedback":{"max_p":0.25,"initial_p_by_id":[0.125,0.5]}}`, "initial_p_by_id[1]"},
		{"initial_p_by_id 64 entries", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","feedback":{"initial_p_by_id":[` + strings.Repeat("0.5,", 63) + `0.5]}}`, ""},
		{"faults outage past round cap", `{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"feedback","max_rounds":40,"faults":{"outages":[{"node":3,"from":50,"for":5,"reset":true}]}}`, "round cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.doc))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Parse rejected %s: %v", tc.doc, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFaultsInContentHash pins the faults block's hash behaviour: it
// changes results so it must change the hash; listing-order-only
// permutations must not; and an all-zero block must hash like no block
// at all.
func TestFaultsInContentHash(t *testing.T) {
	base := `{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback"}`
	noisy := `{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","faults":{"loss":0.05}}`
	hash := func(doc string) string {
		t.Helper()
		h, err := mustParse(t, doc).Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if hash(base) == hash(noisy) {
		t.Fatal("faults block did not change the content hash")
	}
	if hash(base) != hash(`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","faults":{}}`) {
		t.Fatal("empty faults block split the cache against no faults block")
	}
	a := `{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","faults":{"outages":[{"node":9,"from":4,"for":1},{"node":2,"from":1,"for":2}],"wake":{"kind":"explicit","at":{"3":[5,1]}}}}`
	b := `{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","faults":{"wake":{"kind":"explicit","at":{"3":[1,5]}},"outages":[{"node":2,"from":1,"for":2},{"node":9,"from":4,"for":1}]}}`
	if hash(a) != hash(b) {
		t.Fatal("listing-order permutation of one fault model hashed apart")
	}
	if hash(a) == hash(noisy) {
		t.Fatal("different fault models hashed together")
	}
}

// TestFaultsScenarioRuns executes a faulted scenario end to end on the
// compiled path and checks the verifier-backed report fields.
func TestFaultsScenarioRuns(t *testing.T) {
	doc := `{
		"graph": {"family": "gnp", "n": 80, "p": 0.2},
		"algorithm": "feedback",
		"trials": 3,
		"seed": 5,
		"faults": {"spurious": 0.05, "wake": {"kind": "degree", "window": 6}}
	}`
	c, err := ParseCompiledBytes([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	report, err := Run(context.Background(), c, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u := report.Units[0]
	if !u.Verified || !u.IndependentEveryRound || !u.MaximalAtTermination {
		t.Fatalf("spurious-only run must verify clean: %+v", u)
	}
	if u.IndependenceViolations != 0 {
		t.Fatalf("violations = %d, want 0", u.IndependenceViolations)
	}
	if u.StableRounds.Max == 0 || u.StableRounds.Max > u.Rounds.Max {
		t.Fatalf("stable rounds %+v implausible against rounds %+v", u.StableRounds, u.Rounds)
	}
	if u.RoundsTail.P50 == 0 || u.RoundsTail.P99 < u.RoundsTail.P50 {
		t.Fatalf("rounds percentiles %+v implausible", u.RoundsTail)
	}
	// The report is a pure function of the spec whatever the engine.
	c2, err := ParseCompiledBytes([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	report2, err := Run(context.Background(), c2, RunOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := report.JSON()
	b2, _ := report2.JSON()
	if string(b1) != string(b2) {
		t.Fatal("faulted report bytes differ across worker counts")
	}
}

func TestHashIgnoresPerformanceKnobs(t *testing.T) {
	base := mustParse(t, `{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","trials":3,"seed":9}`)
	variants := []string{
		`{"name":"labelled","graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","trials":3,"seed":9}`,
		`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","trials":3,"seed":9,"engine":"columnar"}`,
		`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","trials":3,"seed":9,"engine":"sparse"}`,
		`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","trials":3,"seed":9,"shards":4}`,
		`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","trials":3,"seed":9,"workers":7}`,
		// Explicit defaults hash like omitted ones.
		`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","trials":3,"seed":9,"engine":"auto","feedback":{"factor":2}}`,
	}
	want, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range variants {
		got, err := mustParse(t, doc).Hash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("spec %s hashed %s, want %s (performance knobs must not split the cache)", doc, got, want)
		}
	}

	// Semantic changes must change the hash.
	different := []string{
		`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","trials":3,"seed":10}`,
		`{"graph":{"family":"gnp","n":51,"p":0.5},"algorithm":"feedback","trials":3,"seed":9}`,
		`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"globalsweep","trials":3,"seed":9}`,
		`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","trials":4,"seed":9}`,
		`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","trials":3,"seed":9,"feedback":{"factor":3}}`,
		`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","trials":3,"seed":9,"wake_window":8}`,
	}
	for _, doc := range different {
		got, err := mustParse(t, doc).Hash()
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			t.Errorf("spec %s hashed like the base spec; semantic fields must split the cache", doc)
		}
	}
}

// TestFeedbackFieldsInContentHash pins the two per-node feedback
// fields' place in the hash: absent, they leave every existing hash as
// it was; a factor range of one point is the fixed factor; the list is
// copied, so editing the caller's slice after Compile changes nothing;
// and each field, set, changes the hash.
func TestFeedbackFieldsInContentHash(t *testing.T) {
	hash := func(doc string) string {
		t.Helper()
		h, err := mustParse(t, doc).Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	plain := hash(`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","feedback":{"factor":3}}`)
	if got := hash(`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","feedback":{"factor":3,"factor_max":3}}`); got != plain {
		t.Fatalf("factor_max equal to factor hashed %s, without it %s", got, plain)
	}
	if hash(`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","feedback":{"factor_max":2}}`) !=
		hash(`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback"}`) {
		t.Fatal("factor_max equal to the default factor split the cache")
	}
	for _, doc := range []string{
		`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","feedback":{"factor":3,"factor_max":4}}`,
		`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","feedback":{"factor":3,"initial_p_by_id":[0.5]}}`,
	} {
		if hash(doc) == plain {
			t.Errorf("spec %s hashed like the plain factor-3 spec", doc)
		}
	}
	list := []float64{0.5, 0.25}
	s := &Spec{Graph: GraphSpec{Family: "gnp", N: 50, P: 0.5}, Algorithm: "feedback", Feedback: &FeedbackSpec{InitialPByID: list}}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	list[0] = 0.125
	if c.Spec.Feedback.InitialPByID[0] != 0.5 {
		t.Fatal("the compiled spec shares its initial_p_by_id list with the caller")
	}
	if h, _ := s.Hash(); h == c.Hash {
		t.Fatal("editing the list did not change the spec's hash")
	}
}

// TestEqualHashMeansEqualBytes is the cache-soundness contract at its
// sharpest: specs that hash equal but differ in non-semantic fields
// (the free-form name, perf knobs, crash-list order, an unused base
// algorithm under a sweep) must produce byte-identical reports.
func TestEqualHashMeansEqualBytes(t *testing.T) {
	pairs := [][2]string{
		{
			`{"name":"alice","graph":{"family":"gnp","n":40,"p":0.5},"algorithm":"feedback","trials":2,"seed":4}`,
			`{"name":"bob","graph":{"family":"gnp","n":40,"p":0.5},"algorithm":"feedback","trials":2,"seed":4,"engine":"scalar","workers":3}`,
		},
		{
			`{"graph":{"family":"gnp","n":30,"p":0.5},"algorithm":"feedback","trials":2,"crash_at_round":{"3":[1,2,5]}}`,
			`{"graph":{"family":"gnp","n":30,"p":0.5},"algorithm":"feedback","trials":2,"crash_at_round":{"3":[5,2,1]}}`,
		},
		{
			`{"graph":{"family":"gnp","n":30,"p":0.5},"algorithm":"feedback","trials":2,"sweep":{"algorithm":["globalsweep"]}}`,
			`{"graph":{"family":"gnp","n":30,"p":0.5},"algorithm":"globalsweep","trials":2,"sweep":{"algorithm":["globalsweep"]}}`,
		},
		// A one-point sweep axis folds into the plain base field.
		{
			`{"graph":{"family":"gnp","p":0.5},"algorithm":"feedback","trials":2,"sweep":{"n":[30]}}`,
			`{"graph":{"family":"gnp","n":30,"p":0.5},"algorithm":"feedback","trials":2}`,
		},
	}
	for _, pair := range pairs {
		var hashes [2]string
		var bodies [2]string
		for i, doc := range pair {
			c, err := mustParse(t, doc).Compile()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(context.Background(), c, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			hashes[i], bodies[i] = c.Hash, string(b)
		}
		if hashes[0] != hashes[1] {
			t.Errorf("pair %v hashed %s vs %s, want equal", pair, hashes[0], hashes[1])
		}
		if bodies[0] != bodies[1] {
			t.Errorf("pair %v produced different report bytes despite equal hashes", pair)
		}
	}
}

// TestMillionNodeBounds is the sparse-admission contract: a million-node
// spec validates exactly when the representation its plan will use fits
// in memory. The same graph that sails through under "auto" (planned
// sparse, a few dozen MB of CSR) or "sparse" must fail up front under a
// dense-matrix pin (125 GB) — with the reason spelled out — and the
// engine choice must not move the content hash.
func TestMillionNodeBounds(t *testing.T) {
	const graphDoc = `"graph":{"family":"gnp","n":1000000,"p":0.00001}`
	auto := mustParse(t, `{`+graphDoc+`,"algorithm":"feedback"}`)
	c, err := auto.Compile()
	if err != nil {
		t.Fatalf("million-node sparse spec rejected: %v", err)
	}
	if got := c.Units[0].PlannedEngine; got.String() != "sparse" {
		t.Fatalf("planned engine %v, want sparse", got)
	}
	for _, pin := range []string{"sparse", "scalar"} {
		if err := mustParse(t, `{`+graphDoc+`,"algorithm":"feedback","engine":"`+pin+`"}`).Validate(); err != nil {
			t.Fatalf("million-node spec with engine %q rejected: %v", pin, err)
		}
	}
	for _, pin := range []string{"bitset", "columnar"} {
		_, err := Parse(strings.NewReader(`{` + graphDoc + `,"algorithm":"feedback","engine":"` + pin + `"}`))
		if err == nil {
			t.Fatalf("infeasible dense pin %q accepted", pin)
		}
		for _, want := range []string{"dense adjacency matrix", "sparse"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("dense-pin error %q does not mention %q", err, want)
			}
		}
	}
	// Engine and bounds are performance knobs: every admitted variant of
	// the same workload must share one content hash.
	want, err := auto.Hash()
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []string{"sparse", "scalar"} {
		got, err := mustParse(t, `{`+graphDoc+`,"algorithm":"feedback","engine":"`+pin+`"}`).Hash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("engine %q moved the content hash: %s vs %s", pin, got, want)
		}
	}
}

func TestSweepStillValidatesBaseAlgorithm(t *testing.T) {
	_, err := Parse(strings.NewReader(
		`{"graph":{"family":"gnp","n":30,"p":0.5},"algorithm":"bogus","sweep":{"algorithm":["feedback"]}}`))
	if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("typo'd base algorithm under a sweep: err=%v, want unknown-algorithm", err)
	}
	// An omitted base is fine when the sweep supplies the algorithms.
	if _, err := Parse(strings.NewReader(
		`{"graph":{"family":"gnp","n":30,"p":0.5},"sweep":{"algorithm":["feedback"]}}`)); err != nil {
		t.Fatalf("sweep-only algorithms rejected: %v", err)
	}
}

func TestSeedZeroNormalisesToOne(t *testing.T) {
	a := mustParse(t, `{"graph":{"family":"gnp","n":30,"p":0.5},"algorithm":"feedback"}`)
	b := mustParse(t, `{"graph":{"family":"gnp","n":30,"p":0.5},"algorithm":"feedback","seed":1,"trials":1}`)
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha != hb {
		t.Fatalf("unseeded spec hashed %s, explicit seed-1 spec %s; defaults must normalise", ha, hb)
	}
}

func TestCompileExpandsSweepDeterministically(t *testing.T) {
	s := mustParse(t, `{"graph":{"family":"gnp","p":0.5},"algorithm":"feedback",
		"sweep":{"n":[20,40],"p":[0.2,0.8],"algorithm":["globalsweep","feedback"]}}`)
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Units) != 8 {
		t.Fatalf("got %d units, want 8", len(c.Units))
	}
	// Order: algorithms × n × p, as documented.
	wantAlgo := []string{"globalsweep", "globalsweep", "globalsweep", "globalsweep", "feedback", "feedback", "feedback", "feedback"}
	wantN := []int{20, 20, 40, 40, 20, 20, 40, 40}
	wantP := []float64{0.2, 0.8, 0.2, 0.8, 0.2, 0.8, 0.2, 0.8}
	for i, u := range c.Units {
		if u.Index != i || u.Algorithm != wantAlgo[i] || u.N != wantN[i] || u.P != wantP[i] {
			t.Errorf("unit %d = (%s, n=%d, p=%v), want (%s, n=%d, p=%v)",
				i, u.Algorithm, u.N, u.P, wantAlgo[i], wantN[i], wantP[i])
		}
	}
}

func TestRunDeterministicAcrossWorkersAndEngines(t *testing.T) {
	doc := `{"graph":{"family":"gnp","n":80,"p":0.3},"algorithm":"feedback","trials":6,"seed":5}`
	var want []byte
	for _, variant := range []string{
		doc,
		`{"graph":{"family":"gnp","n":80,"p":0.3},"algorithm":"feedback","trials":6,"seed":5,"workers":4}`,
		`{"graph":{"family":"gnp","n":80,"p":0.3},"algorithm":"feedback","trials":6,"seed":5,"engine":"scalar"}`,
		`{"graph":{"family":"gnp","n":80,"p":0.3},"algorithm":"feedback","trials":6,"seed":5,"engine":"columnar","shards":3}`,
		`{"graph":{"family":"gnp","n":80,"p":0.3},"algorithm":"feedback","trials":6,"seed":5,"engine":"sparse","shards":3}`,
		`{"graph":{"family":"gnp","n":80,"p":0.3},"algorithm":"feedback","trials":6,"seed":5,"engine":"sparse","workers":2}`,
	} {
		c, err := mustParse(t, variant).Compile()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), c, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = b
			continue
		}
		if string(b) != string(want) {
			t.Fatalf("variant %s produced different report bytes; engines/workers/shards must not affect results", variant)
		}
	}
}

func TestRunPinnedGraphSeed(t *testing.T) {
	// A pinned graph seed runs every trial on one instance: edge count
	// has zero variance across trials, unlike the per-trial default.
	pinned := mustParse(t, `{"graph":{"family":"gnp","n":60,"p":0.4,"seed":3},"algorithm":"feedback","trials":4}`)
	c, err := pinned.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), c, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u := rep.Units[0]
	if u.Edges != float64(int(u.Edges)) {
		t.Fatalf("pinned-seed unit has fractional mean edge count %v; trials must share one instance", u.Edges)
	}
	if !u.Verified {
		t.Fatal("pinned-seed unit failed MIS verification")
	}
}

func TestRunEmitsProgressEvents(t *testing.T) {
	c, err := mustParse(t, `{"graph":{"family":"gnp","n":40,"p":0.5},"algorithm":"feedback","trials":1,"seed":2}`).Compile()
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	_, err = Run(context.Background(), c, RunOptions{Progress: func(e Event) { events = append(events, e) }})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[EventType]int{}
	for _, e := range events {
		counts[e.Type]++
	}
	if counts[EventUnitStart] != 1 || counts[EventUnitDone] != 1 || counts[EventTrial] != 1 {
		t.Fatalf("event counts %v, want one unit_start/unit_done/trial", counts)
	}
	if counts[EventRound] == 0 {
		t.Fatal("single-trial run emitted no round events")
	}
}

func TestRunHonoursCancellation(t *testing.T) {
	c, err := mustParse(t, `{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback","trials":500,"workers":1}`).Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	trials := 0
	_, err = Run(ctx, c, RunOptions{Progress: func(e Event) {
		if e.Type == EventTrial {
			trials++
			if trials == 3 {
				cancel()
			}
		}
	}})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if trials >= 500 {
		t.Fatal("cancellation did not stop the trial loop")
	}
}

func TestCrashAndWakeSchedulesApply(t *testing.T) {
	// Fault schedules draw from their own rng streams, so a crash+wake
	// scenario must stay bit-deterministic across worker counts like
	// any other. (Verification may legitimately fail here — crashed
	// nodes leave perceived-maximality holes — so the assertion is on
	// determinism, not on Verified.)
	doc := `{"graph":{"family":"gnp","n":40,"p":0.4,"seed":8},"algorithm":"feedback","trials":2,"seed":8,
		"crash_at_round":{"2":[0,1,2]},"wake_window":4}`
	c, err := mustParse(t, doc).Compile()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(context.Background(), c, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), c, RunOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := a.JSON()
	bb, _ := b.JSON()
	if string(ab) != string(bb) {
		t.Fatal("crash+wake scenario not deterministic across worker counts")
	}
}

func TestFamiliesAllBuildable(t *testing.T) {
	docs := map[string]string{
		"gnp":                `{"graph":{"family":"gnp","n":30,"p":0.3},"algorithm":"feedback"}`,
		"complete":           `{"graph":{"family":"complete","n":20},"algorithm":"feedback"}`,
		"cliques":            `{"graph":{"family":"cliques","n":200},"algorithm":"feedback"}`,
		"grid":               `{"graph":{"family":"grid","rows":5,"cols":6},"algorithm":"feedback"}`,
		"torus":              `{"graph":{"family":"torus","rows":4,"cols":4},"algorithm":"feedback"}`,
		"path":               `{"graph":{"family":"path","n":25},"algorithm":"feedback"}`,
		"cycle":              `{"graph":{"family":"cycle","n":25},"algorithm":"feedback"}`,
		"star":               `{"graph":{"family":"star","n":25},"algorithm":"feedback"}`,
		"tree":               `{"graph":{"family":"tree","n":25},"algorithm":"feedback"}`,
		"completebinarytree": `{"graph":{"family":"completebinarytree","n":31},"algorithm":"feedback"}`,
		"unitdisk":           `{"graph":{"family":"unitdisk","n":60,"radius":0.25},"algorithm":"feedback"}`,
		"barabasialbert":     `{"graph":{"family":"barabasialbert","n":50,"m":3},"algorithm":"feedback"}`,
		"wattsstrogatz":      `{"graph":{"family":"wattsstrogatz","n":40,"k":4,"beta":0.2},"algorithm":"feedback"}`,
		"hypercube":          `{"graph":{"family":"hypercube","d":5},"algorithm":"feedback"}`,
		"randomregular":      `{"graph":{"family":"randomregular","n":30,"d":4},"algorithm":"feedback"}`,
		"rmat":               `{"graph":{"family":"rmat","n":64,"edges":256},"algorithm":"feedback"}`,
		"configmodel":        `{"graph":{"family":"configmodel","n":50,"edges":150},"algorithm":"feedback"}`,
		"file":               `{"graph":{"family":"file","path":"testdata/tiny.el"},"algorithm":"feedback"}`,
	}
	if len(docs) != len(Families()) {
		t.Fatalf("test covers %d families, registry has %d (%v)", len(docs), len(Families()), Families())
	}
	for family, doc := range docs {
		t.Run(family, func(t *testing.T) {
			c, err := mustParse(t, doc).Compile()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(context.Background(), c, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Units[0].Verified {
				t.Fatalf("family %s produced an unverified MIS", family)
			}
		})
	}
}

// TestAfekSweepSeedTerminates replays the fresh-seed copy of
// sweep-algorithms.json whose afek unit once never ended: unit 8
// (afek, n=100) trial 5 had all 100 nodes still active after 50000
// rounds, because the schedule held p at 1/2 after its ramp. The
// schedule now restarts its ramp, and the whole sweep finishes.
func TestAfekSweepSeedTerminates(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "sweep-algorithms.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := mustParse(t, string(doc))
	s.Seed, s.Workers, s.MaxRounds = 1455082022531897818, 1, 50000
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), c, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if u := rep.Units[8]; u.Algorithm != "afek" || u.N != 100 || !u.Verified {
		t.Fatalf("unit 8 = %s n=%d verified=%v, want a verified afek n=100 unit", u.Algorithm, u.N, u.Verified)
	}
}

// TestGNPTinyPSpec runs a G(n, p) spec whose p is too small for 1 − p to
// differ from 1. Admission prices it at about zero expected edges, so it
// compiles; the sampler then has to build it with no edge at all, where
// the old skip loop's overflowed gaps made about every second of its
// 5·10⁹ pairs an edge.
func TestGNPTinyPSpec(t *testing.T) {
	c, err := ParseCompiledBytes([]byte(`{"graph":{"family":"gnp","n":100000,"p":1e-300},"algorithm":"feedback","trials":1,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	edges := -1
	rep, err := Run(context.Background(), c, RunOptions{Workers: 1, OnTrial: func(_, _ int, g *graph.Graph, _ *sim.Result, _ int) {
		edges = g.M()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if u := rep.Units[0]; edges != 0 || u.N != 100000 || !u.Verified {
		t.Fatalf("G(100000, 1e-300): m=%d, unit n=%d verified=%v; want m=0 on a verified 100000-node unit", edges, u.N, u.Verified)
	}
}

// TestParseGraphAndBuild pins the command-line graph grammar and the
// checks GraphSpec.Build shares with Compile: each malformed or
// out-of-range graph fails with an error naming the problem, and a
// valid one builds the registry's instance.
func TestParseGraphAndBuild(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.el")
	if err := os.WriteFile(empty, []byte("n 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec string
		want string // substring of the error; "" means the graph builds
		n, m int
	}{
		{spec: "", want: "names no family"},
		{spec: ":n=5", want: "names no family"},
		{spec: "gnp:n=5,p", want: `"p" is not key=value`},
		{spec: "gnp:n=5,n=6", want: `gives "n" twice`},
		{spec: "gnp:n=5,N=6", want: `gives "n" twice`},
		{spec: "gnp:family=grid", want: `gives "family" twice`},
		{spec: "gnp:n=10,p=0.5,q=1", want: `unknown field "q"`},
		{spec: "gnp:n=ten,p=0.5", want: "GraphSpec.n"},
		{spec: "gnp:n=10,p=NaN", want: "GraphSpec.p"},
		{spec: "gnp:n=10,p=Inf", want: "GraphSpec.p"},
		{spec: "gnp:n=10,p=-Inf", want: "GraphSpec.p"},
		{spec: "gnp:n=10,p=-0.1", want: "p -0.1 outside [0, 1]"},
		{spec: "gnp:n=10,p=1.5", want: "p 1.5 outside [0, 1]"},
		{spec: "ring:n=10", want: "unknown graph family"},
		{spec: "gnp:n=10", want: "needs p="},
		{spec: "gnp:n=-5", want: "needs p="},
		{spec: "wattsstrogatz:n=100,k=4", want: "needs beta="},
		{spec: "gnp:p=0.5", want: "n 0 < 1"},
		{spec: "gnp:n=-5,p=0.5", want: "n -5 < 1"},
		{spec: "grid:rows=0,cols=3", want: "positive rows and cols"},
		{spec: "unitdisk:n=50,radius=-1", want: "radius -1"},
		{spec: "cycle:n=2", want: "n ≥ 3"},
		{spec: "grid:rows=3,cols=3,seed=2", want: `"seed" is not used`},
		{spec: "gnp:n=10,p=0.5,radius=0.1", want: `"radius" is not used`},
		{spec: "file", want: "needs a graph path"},
		{spec: "file:path=testdata/missing.el", want: "missing.el"},
		{spec: "file:path=testdata/tiny.el,digest=abc", want: "pins abc"},
		{spec: "file:path=" + empty, want: "has no nodes"},
		{spec: "gnp:n=200,p=0.05", n: 200, m: -1},
		{spec: "gnp:n=10,p=0", n: 10, m: 0},
		{spec: "wattsstrogatz:n=100,k=4,beta=0", n: 100, m: 200},
		{spec: "grid:rows=3,cols=4", n: 12, m: 17},
		{spec: "rmat:n=64,edges=200", n: 64, m: -1},
		{spec: "configmodel:n=50,edges=100", n: 50, m: -1},
		{spec: "file:path=testdata/tiny.el", n: 6, m: 7},
	} {
		g, err := ParseGraph(tc.spec)
		var built *graph.Graph
		if err == nil {
			built, err = g.Build(1)
		}
		if tc.want != "" {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%q: err = %v, want one naming %q", tc.spec, err, tc.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		if built.N() != tc.n || tc.m >= 0 && built.M() != tc.m {
			t.Errorf("%q: built n=%d m=%d, want n=%d m=%d", tc.spec, built.N(), built.M(), tc.n, tc.m)
		}
	}
}

// TestBuildSeedsAndDefaults: a random family draws from the seed= key
// when given and from Build's seed otherwise, and Build resolves the
// spec in place as Compile does, recording the seed it drew from.
func TestBuildSeedsAndDefaults(t *testing.T) {
	want := graph.GNP(30, 0.3, rng.New(9))
	for _, tc := range []struct {
		spec string
		seed uint64
	}{
		{"gnp:n=30,p=0.3", 9},
		{"gnp:n=30,p=0.3,seed=9", 1},
	} {
		g, err := ParseGraph(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Build(tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Edges(), want.Edges()) || g.Seed != 9 {
			t.Errorf("%q with seed %d: not G(30, 0.3) from rng.New(9), or resolved to seed %d", tc.spec, tc.seed, g.Seed)
		}
	}
	g, err := ParseGraph("rmat:n=64,edges=200")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Build(1); err != nil || g.A != 0.57 || g.B != 0.19 || g.C != 0.19 {
		t.Errorf("rmat resolved to a=%v b=%v c=%v (err %v), want the Graph500 defaults", g.A, g.B, g.C, err)
	}
	g, err = ParseGraph("file:path=testdata/tiny.el")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Build(1); err != nil || g.Format != graph.FormatEdgeList || g.Digest != "c53738a48d073c2bd6f56c8c22e3b9f686bb8fbbf63a1224e0ae11313861e2db" {
		t.Errorf("file resolved to format %q digest %q (err %v)", g.Format, g.Digest, err)
	}
}
