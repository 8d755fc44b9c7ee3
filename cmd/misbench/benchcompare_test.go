package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"testing"

	"beepmis/internal/fault"
)

// rec builds a minimal benchmark record for compare tests; only the
// key fields and ns_per_round matter to the gate.
func rec(engine string, n int, p float64, shards int, ns float64) benchRecord {
	return benchRecord{Engine: engine, N: n, P: p, Shards: shards, NsPerRound: ns}
}

func TestBenchCompareRecordMatching(t *testing.T) {
	baseline := []benchRecord{
		rec("columnar", 1000, 0.1, 1, 500),
		rec("columnar", 1000, 0.1, 4, 300), // same workload, different shards: distinct key
		rec("sparse", 1000, 0.1, 1, 900),
		rec("columnar", 2000, 0.1, 1, 2000), // different n: distinct key
	}
	current := []benchRecord{
		rec("columnar", 1000, 0.1, 1, 520),
		rec("columnar", 1000, 0.1, 4, 310),
		rec("sparse", 1000, 0.1, 1, 880),
		rec("columnar", 2000, 0.1, 1, 1999),
	}
	diff := compareBenchRecords(baseline, current, 0.2)
	if diff.Regressions != 0 || diff.Missing != 0 {
		t.Fatalf("clean compare found regressions=%d missing=%d: %+v", diff.Regressions, diff.Missing, diff.Entries)
	}
	// Every entry must have matched its own key's baseline, not another.
	want := map[string]float64{
		"columnar shards=1 G(1000,0.1)": 500,
		"columnar shards=4 G(1000,0.1)": 300,
		"sparse shards=1 G(1000,0.1)":   900,
		"columnar shards=1 G(2000,0.1)": 2000,
	}
	for _, e := range diff.Entries {
		if e.BaseNsPerRound != want[e.Key] {
			t.Fatalf("entry %s matched baseline %v, want %v", e.Key, e.BaseNsPerRound, want[e.Key])
		}
	}
}

func TestBenchCompareDuplicateBaselinePicksFastest(t *testing.T) {
	// bench.sh stages can measure one key several times; the gate must
	// compare against the fastest (least noise-inflated) measurement.
	baseline := []benchRecord{
		rec("sparse", 5000, 0.01, 2, 1500),
		rec("sparse", 5000, 0.01, 2, 1000),
		rec("sparse", 5000, 0.01, 2, 1250),
	}
	diff := compareBenchRecords(baseline, []benchRecord{rec("sparse", 5000, 0.01, 2, 1190)}, 0.1)
	e := diff.Entries[0]
	if e.BaseNsPerRound != 1000 {
		t.Fatalf("baseline selected %v, want the minimum 1000", e.BaseNsPerRound)
	}
	if e.Status != "regression" {
		// 1190 > 1000·1.1, even though it beats two of the three
		// baseline measurements.
		t.Fatalf("status %q, want regression (1190 vs min-baseline 1000 at 10%%)", e.Status)
	}
}

func TestBenchCompareToleranceBoundary(t *testing.T) {
	cases := []struct {
		name   string
		curNs  float64
		status string
	}{
		{"well within", 1000, "ok"},
		{"faster than baseline", 400, "ok"},
		{"exactly at tolerance", 1200, "ok"}, // cur == base·(1+tol): pass, regression is strict
		{"just over tolerance", 1200.0001, "regression"},
		{"double", 2000, "regression"},
	}
	baseline := []benchRecord{rec("columnar", 1000, 0.1, 1, 1000)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diff := compareBenchRecords(baseline, []benchRecord{rec("columnar", 1000, 0.1, 1, tc.curNs)}, 0.2)
			if got := diff.Entries[0].Status; got != tc.status {
				t.Fatalf("cur=%v ns vs base=1000 ns at tol=0.2: status %q, want %q", tc.curNs, got, tc.status)
			}
			wantRegr := 0
			if tc.status == "regression" {
				wantRegr = 1
			}
			if diff.Regressions != wantRegr {
				t.Fatalf("regression count %d, want %d", diff.Regressions, wantRegr)
			}
		})
	}
}

func TestBenchCompareMissingBaselineRecord(t *testing.T) {
	baseline := []benchRecord{rec("columnar", 1000, 0.1, 1, 500)}
	current := []benchRecord{
		rec("columnar", 1000, 0.1, 1, 510),
		rec("columnar", 1000, 0.1, 8, 200), // shards=8 never benched before
	}
	diff := compareBenchRecords(baseline, current, 0.2)
	if diff.Missing != 1 || diff.Regressions != 0 {
		t.Fatalf("missing=%d regressions=%d, want 1 and 0: %+v", diff.Missing, diff.Regressions, diff.Entries)
	}
	// Unknown keys are reported but never fatal — a grown bench grid
	// must not fail the gate before its baseline is re-recorded.
	var buf bytes.Buffer
	path := writeBaseline(t, baseline)
	if err := runBenchCompare(&buf, current, path, 0.2); err != nil {
		t.Fatalf("missing-baseline record failed the gate: %v", err)
	}
	if !strings.Contains(buf.String(), `"missing_baseline"`) {
		t.Fatalf("diff does not surface the missing record:\n%s", buf.String())
	}
}

func TestBenchCompareFaultsDistinguishKeys(t *testing.T) {
	noisy := &fault.Spec{Loss: 0.05}
	noisyRec := rec("columnar", 1000, 0.1, 1, 900)
	noisyRec.Faults = noisy.Normalized()
	baseline := []benchRecord{rec("columnar", 1000, 0.1, 1, 500), noisyRec}
	// A clean current run must match the clean baseline (500), not the
	// noisy one (900) — faults are part of the key.
	diff := compareBenchRecords(baseline, []benchRecord{rec("columnar", 1000, 0.1, 1, 800)}, 0.2)
	e := diff.Entries[0]
	if e.BaseNsPerRound != 500 || e.Status != "regression" {
		t.Fatalf("clean record matched %v/%s, want clean baseline 500 and a regression", e.BaseNsPerRound, e.Status)
	}
	cur := rec("columnar", 1000, 0.1, 1, 950)
	cur.Faults = &fault.Spec{Loss: 0.05}
	diff = compareBenchRecords(baseline, []benchRecord{cur}, 0.2)
	e = diff.Entries[0]
	if e.BaseNsPerRound != 900 || e.Status != "ok" {
		t.Fatalf("noisy record matched %v/%s, want noisy baseline 900 ok", e.BaseNsPerRound, e.Status)
	}
}

func TestBenchCompareGoldenDiff(t *testing.T) {
	baseline := []benchRecord{
		rec("columnar", 1000, 0.1, 1, 1000),
		rec("sparse", 1000, 0.1, 2, 2000),
	}
	current := []benchRecord{
		rec("columnar", 1000, 0.1, 1, 2500), // 2.5×: regression at tol 0.5
		rec("sparse", 1000, 0.1, 2, 2100),   // 1.05×: ok
	}
	path := writeBaseline(t, baseline)
	var buf bytes.Buffer
	err := runBenchCompare(&buf, current, path, 0.5)
	if err == nil {
		t.Fatal("2.5× slowdown passed the gate")
	}
	// The diff is machine-readable JSON with regressions sorted first.
	var diff benchDiff
	if uerr := json.Unmarshal(buf.Bytes(), &diff); uerr != nil {
		t.Fatalf("diff output is not JSON: %v\n%s", uerr, buf.String())
	}
	want := benchDiff{
		Baseline:    path,
		Tolerance:   0.5,
		Regressions: 1,
		Entries: []benchDiffEntry{
			{
				Key: "columnar shards=1 G(1000,0.1)", Engine: "columnar", N: 1000, P: 0.1, Shards: 1,
				Status: "regression", BaseNsPerRound: 1000, CurNsPerRound: 2500, Ratio: 2.5,
			},
			{
				Key: "sparse shards=2 G(1000,0.1)", Engine: "sparse", N: 1000, P: 0.1, Shards: 2,
				Status: "ok", BaseNsPerRound: 2000, CurNsPerRound: 2100, Ratio: 1.05,
			},
		},
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(diff)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("diff mismatch:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestBenchCompareEndToEnd drives the real CLI path: -bench -json runs
// record the baseline, a further identical run must pass -compare
// against it, and the same baseline with an injected 2× slowdown (the
// baseline's times halved) must fail. One run of this workload takes
// about 0.1 ms of wall clock on a shared machine, so each record times
// 30 runs, and the baseline holds the records of ten invocations, of
// which -compare keys each to its fastest: the slowdown then passes
// the gate only if the fresh run beats the fastest of ten readings by
// a quarter.
func TestBenchCompareEndToEnd(t *testing.T) {
	const e2eRuns = "30"
	var out bytes.Buffer
	args := []string{"-bench", "-benchn", "300", "-benchp", "0.5", "-benchruns", e2eRuns, "-shards", "1", "-json"}
	for range 10 {
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
	}
	var records []benchRecord
	dec := json.NewDecoder(&out)
	for dec.More() {
		var r benchRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		records = append(records, r)
	}
	if len(records) == 0 {
		t.Fatal("no bench records")
	}
	path := writeBaseline(t, records)
	// Same machine, same workload, generous tolerance: must pass.
	var diffOut bytes.Buffer
	pass := []string{"-bench", "-benchn", "300", "-benchp", "0.5", "-benchruns", e2eRuns, "-shards", "1", "-compare", path, "-tolerance", "25"}
	if err := run(pass, &diffOut); err != nil {
		t.Fatalf("self-compare at huge tolerance failed: %v\n%s", err, diffOut.String())
	}
	// Injected regression: halving every baseline time makes the fresh
	// run look 2× slower, which must trip even a 50% tolerance.
	for i := range records {
		records[i].NsPerRound /= 2
	}
	slowPath := writeBaseline(t, records)
	diffOut.Reset()
	fail := []string{"-bench", "-benchn", "300", "-benchp", "0.5", "-benchruns", e2eRuns, "-shards", "1", "-compare", slowPath, "-tolerance", "0.5"}
	err := run(fail, &diffOut)
	if err == nil {
		t.Fatalf("injected 2× slowdown passed the gate:\n%s", diffOut.String())
	}
	if !strings.Contains(err.Error(), "regression") {
		t.Fatalf("gate failure does not name the regression: %v", err)
	}
	if !strings.Contains(diffOut.String(), `"regression"`) {
		t.Fatalf("machine diff missing regression entries:\n%s", diffOut.String())
	}
}

func TestBenchCompareBadBaseline(t *testing.T) {
	if err := runBenchCompare(&bytes.Buffer{}, nil, filepath.Join(t.TempDir(), "absent.json"), 0.2); err == nil {
		t.Fatal("absent baseline file did not error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"not":"an array"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runBenchCompare(&bytes.Buffer{}, nil, bad, 0.2); err == nil {
		t.Fatal("malformed baseline file did not error")
	}
}

// TestBenchRecordEffectiveShards pins how records stamp the shard
// count: -shards 0 resolves to GOMAXPROCS on every engine (so "-shards
// 0" and "-shards GOMAXPROCS" key identically in the regression gate).
func TestBenchRecordEffectiveShards(t *testing.T) {
	old := goruntime.GOMAXPROCS(3)
	defer goruntime.GOMAXPROCS(old)
	wl, err := buildBenchWorkload("", 300, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	records, err := collectEngineBench(wl, 0.5, 1, 1, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("got %d records, want 2", len(records))
	}
	for _, r := range records {
		if r.Shards != 3 {
			t.Fatalf("%s record stamps shards=%d under GOMAXPROCS=3 with -shards 0, want 3", r.Engine, r.Shards)
		}
		if r.GoMaxProcs != 3 {
			t.Fatalf("%s record stamps gomaxprocs=%d, want 3", r.Engine, r.GoMaxProcs)
		}
	}
}

// writeBaseline commits records to a temp trajectory file in the
// BENCH_pr*.json format (one top-level JSON array).
func writeBaseline(t *testing.T, records []benchRecord) string {
	t.Helper()
	b, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
