package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"testing"
	"time"
)

// benchArgs is a small, fast -bench workload shared by the tests.
var benchArgs = []string{"-bench", "-benchn", "300", "-benchp", "0.5", "-benchruns", "2"}

func TestBenchJSONOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(append([]string{}, append(benchArgs, "-json")...), &out); err != nil {
		t.Fatal(err)
	}
	var records []benchRecord
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var rec benchRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		records = append(records, rec)
	}
	if len(records) != 4 {
		t.Fatalf("got %d records, want one per engine (4):\n%v", len(records), records)
	}
	engines := map[string]benchRecord{}
	for _, rec := range records {
		engines[rec.Engine] = rec
		if rec.N != 300 || rec.P != 0.5 || rec.Runs != 2 {
			t.Fatalf("record workload fields wrong: %+v", rec)
		}
		if rec.Rounds <= 0 || rec.Beeps <= 0 || rec.NsPerRound <= 0 || rec.NsPerRun <= 0 {
			t.Fatalf("record metrics not positive: %+v", rec)
		}
		// The auto heuristic's choice is stamped on every record: on
		// this small dense workload (feedback has a kernel) it must be
		// the columnar engine.
		if rec.AutoEngine != "columnar" {
			t.Fatalf("auto_engine %q, want columnar: %+v", rec.AutoEngine, rec)
		}
		// Environment stamps make trajectory files comparable across
		// machines and toolchains.
		if rec.GoVersion != goruntime.Version() || rec.GoMaxProcs != goruntime.GOMAXPROCS(0) {
			t.Fatalf("environment stamp wrong: %+v", rec)
		}
		ts, err := time.Parse(time.RFC3339, rec.Timestamp)
		if err != nil {
			t.Fatalf("timestamp %q is not ISO-8601/RFC3339: %v", rec.Timestamp, err)
		}
		if age := time.Since(ts); age < -time.Minute || age > time.Hour {
			t.Fatalf("timestamp %q not near now", rec.Timestamp)
		}
	}
	for _, name := range []string{"scalar", "bitset", "columnar", "sparse"} {
		if _, ok := engines[name]; !ok {
			t.Fatalf("no record for engine %q", name)
		}
	}
	// Shard stamps reflect what applied: serial engines record 1 and
	// the sharded engines resolve the 0 default to a concrete bound.
	if engines["scalar"].Shards != 1 || engines["bitset"].Shards != 1 {
		t.Fatalf("serial engines should record shards=1: %+v", engines)
	}
	if engines["columnar"].Shards < 1 || engines["sparse"].Shards < 1 {
		t.Fatalf("sharded engines have unresolved shard bounds: %+v", engines)
	}
	// Seed-identity across engines shows through the benchmark too.
	if engines["scalar"].Rounds != engines["columnar"].Rounds ||
		engines["scalar"].Beeps != engines["columnar"].Beeps ||
		engines["scalar"].Rounds != engines["sparse"].Rounds ||
		engines["scalar"].Beeps != engines["sparse"].Beeps {
		t.Fatalf("engines disagree on rounds/beeps: %+v", engines)
	}
}

// TestBenchAutoFallbackObservable is the bugfix regression: when the
// memory budget rules the dense matrix out, the bench enumerates only
// the engines that could really run the workload, and every record's
// auto_engine field says the auto heuristic now lands on the sparse
// engine — not on a silent scalar walk.
func TestBenchAutoFallbackObservable(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-bench", "-json", "-benchn", "20000", "-benchp", "0.001", "-benchruns", "1",
		"-membudget", "10000000"} // 10 MB: matrix needs ~50 MB, CSR ~2 MB
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var engines []string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var rec benchRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		engines = append(engines, rec.Engine)
		if rec.AutoEngine != "sparse" {
			t.Fatalf("auto_engine %q, want sparse (budget excludes the matrix): %+v", rec.AutoEngine, rec)
		}
	}
	if len(engines) != 2 || engines[0] != "scalar" || engines[1] != "sparse" {
		t.Fatalf("engines measured %v, want exactly [scalar sparse]", engines)
	}
}

func TestBenchTextOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(append([]string{}, append(benchArgs, "-engine", "columnar", "-shards", "2")...), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "columnar") || !strings.Contains(text, "shards=2") {
		t.Fatalf("text output missing engine/shards: %q", text)
	}
	if strings.Contains(text, "scalar") {
		t.Fatalf("engine pin leaked other engines: %q", text)
	}
}

// TestBenchHonorsOutFile covers -bench -json -out, the across-PR
// trajectory recording workflow.
func TestBenchHonorsOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var stdout bytes.Buffer
	if err := run(append([]string{}, append(benchArgs, "-json", "-engine", "columnar", "-out", path)...), &stdout); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("-out set but stdout got %q", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("bad JSON in -out file %q: %v", data, err)
	}
	if rec.Engine != "columnar" {
		t.Fatalf("unexpected record: %+v", rec)
	}
}

// TestShardsConflictsWithEnginePin mirrors the library surface: only
// the columnar and sparse engines shard propagation, so any other pin
// plus -shards is rejected rather than silently ignored.
func TestShardsConflictsWithEnginePin(t *testing.T) {
	for _, engine := range []string{"scalar", "bitset"} {
		if err := run([]string{"-exp", "fig5", "-trials", "1", "-maxn", "25", "-engine", engine, "-shards", "4"}, &bytes.Buffer{}); err == nil {
			t.Fatalf("-shards with -engine %s accepted", engine)
		}
	}
	for _, engine := range []string{"auto", "columnar", "sparse"} {
		if err := run([]string{"-exp", "fig5", "-trials", "1", "-maxn", "25", "-engine", engine, "-shards", "4"}, &bytes.Buffer{}); err != nil {
			t.Fatalf("-shards with -engine %s: %v", engine, err)
		}
	}
}

// TestBenchFaultsFlag covers misbench -faults: noisy records carry the
// normalised spec, run on every engine (unlike the legacy per-edge
// -beep-loss model), and stay seed-identical across engines.
func TestBenchFaultsFlag(t *testing.T) {
	var out bytes.Buffer
	args := append([]string{}, append(benchArgs, "-json", "-faults", `{"loss":0.05,"spurious":0.01}`)...)
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	engines := map[string]benchRecord{}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var rec benchRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		if rec.Faults == nil || rec.Faults.Loss != 0.05 || rec.Faults.Spurious != 0.01 {
			t.Fatalf("record missing the fault stamp: %+v", rec)
		}
		engines[rec.Engine] = rec
	}
	// All four engines run the noisy workload — the fault layer is
	// engine-agnostic — and agree bit-for-bit.
	for _, name := range []string{"scalar", "bitset", "columnar", "sparse"} {
		rec, ok := engines[name]
		if !ok {
			t.Fatalf("no noisy record for engine %q", name)
		}
		if rec.Rounds != engines["scalar"].Rounds || rec.Beeps != engines["scalar"].Beeps {
			t.Fatalf("engine %s disagrees under faults: %+v vs %+v", name, rec, engines["scalar"])
		}
	}
	// The flag is validated: malformed and out-of-range specs fail.
	if err := run([]string{"-bench", "-faults", `{"loss":2}`}, &bytes.Buffer{}); err == nil {
		t.Fatal("-faults with loss 2 accepted")
	}
	if err := run([]string{"-bench", "-faults", `{nope`}, &bytes.Buffer{}); err == nil {
		t.Fatal("malformed -faults accepted")
	}
	// An all-zero spec is the clean baseline: no stamp in the record.
	var clean bytes.Buffer
	if err := run(append([]string{}, append(benchArgs, "-json", "-faults", `{}`)...), &clean); err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal([]byte(strings.SplitN(clean.String(), "\n", 2)[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Faults != nil {
		t.Fatalf("all-zero faults spec stamped a record: %+v", rec)
	}
}

func TestBenchRejectsBadWorkload(t *testing.T) {
	if err := run([]string{"-bench", "-benchn", "0"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-benchn 0 accepted")
	}
	for _, p := range []string{"NaN", "-0.1", "1.5", "Inf", "-Inf"} {
		if err := run([]string{"-bench", "-benchp", p}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "-benchp") {
			t.Errorf("-benchp %s: err = %v, want a -benchp usage error", p, err)
		}
	}
}

func TestJSONRequiresBench(t *testing.T) {
	if err := run([]string{"-exp", "fig5", "-trials", "1", "-maxn", "25", "-json"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-json without -bench accepted")
	}
}

// TestShardsFlagInvariance runs one experiment at two shard settings and
// requires byte-identical output — the CLI face of the
// determinism-under-sharding contract.
func TestShardsFlagInvariance(t *testing.T) {
	outputs := make([]string, 0, 2)
	for _, shards := range []string{"1", "3"} {
		var out bytes.Buffer
		args := []string{"-exp", "fig5", "-trials", "2", "-maxn", "50", "-engine", "columnar", "-shards", shards, "-format", "csv"}
		if err := run(args, &out); err != nil {
			t.Fatalf("shards=%s: %v", shards, err)
		}
		outputs = append(outputs, out.String())
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("output differs between -shards 1 and -shards 3:\n%s\n---\n%s", outputs[0], outputs[1])
	}
}
