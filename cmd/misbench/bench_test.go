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
	if len(records) != 2 {
		t.Fatalf("got %d records, want one per engine (2):\n%v", len(records), records)
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
	for _, name := range []string{"columnar", "sparse"} {
		if _, ok := engines[name]; !ok {
			t.Fatalf("no record for engine %q", name)
		}
	}
	// Shard stamps reflect what applied: the engines resolve the 0
	// default to a concrete bound.
	if engines["columnar"].Shards < 1 || engines["sparse"].Shards < 1 {
		t.Fatalf("engines have unresolved shard bounds: %+v", engines)
	}
	// Seed-identity across engines shows through the benchmark too.
	if engines["columnar"].Rounds != engines["sparse"].Rounds ||
		engines["columnar"].Beeps != engines["sparse"].Beeps {
		t.Fatalf("engines disagree on rounds/beeps: %+v", engines)
	}
}

// TestBenchAutoFallbackObservable: when the memory budget rules the
// dense matrix out, the bench enumerates only the engine that could
// really run the workload, and every record's auto_engine field says
// the auto heuristic lands on the sparse engine.
func TestBenchAutoFallbackObservable(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-bench", "-json", "-benchn", "140000", "-benchp", "0.00005", "-benchruns", "1"}
	// The matrix would need 2.45 GB, over the 2 GiB budget; the CSR ~4 MB.
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
	if len(engines) != 1 || engines[0] != "sparse" {
		t.Fatalf("engines measured %v, want exactly [sparse]", engines)
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
	if strings.Contains(text, "sparse") {
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

// TestShardsWithEveryEnginePin mirrors the library surface: every
// engine shards propagation, so -shards composes with every -engine
// spelling — the legacy scalar and bitset pins, once refused, included
// — and never changes a byte of output.
func TestShardsWithEveryEnginePin(t *testing.T) {
	var want string
	for _, engine := range []string{"auto", "columnar", "sparse", "scalar", "bitset"} {
		var out bytes.Buffer
		if err := run([]string{"-exp", "fig5", "-trials", "1", "-maxn", "25", "-engine", engine, "-shards", "4"}, &out); err != nil {
			t.Fatalf("-shards with -engine %s: %v", engine, err)
		}
		if want == "" {
			want = out.String()
		} else if out.String() != want {
			t.Fatalf("-engine %s -shards 4 changed the output", engine)
		}
	}
}

// TestBenchFaultsFlag covers misbench -faults: noisy records carry the
// normalised spec, run on every engine, and stay seed-identical across
// engines.
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
	// Both engines run the noisy workload — the fault layer is
	// engine-agnostic — and agree bit-for-bit.
	for _, name := range []string{"columnar", "sparse"} {
		rec, ok := engines[name]
		if !ok {
			t.Fatalf("no noisy record for engine %q", name)
		}
		if rec.Rounds != engines["columnar"].Rounds || rec.Beeps != engines["columnar"].Beeps {
			t.Fatalf("engine %s disagrees under faults: %+v vs %+v", name, rec, engines["columnar"])
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

// TestBuildGraphSpecWorkload: a -graph workload is built through the
// scenario registry and labelled by its spec, or by "file:<base name>"
// for a file, whose digest it carries; a graph the registry rejects is
// an error. The grammar and the checks themselves are pinned by
// internal/scenario's TestParseGraphAndBuild.
func TestBuildGraphSpecWorkload(t *testing.T) {
	for _, tc := range []struct {
		spec, wantErr, wantLabel string
		wantN                    int
	}{
		{spec: "gnp:n=200,p=0.05", wantLabel: "gnp:n=200,p=0.05", wantN: 200},
		{spec: "rmat:n=64,edges=200", wantLabel: "rmat:n=64,edges=200", wantN: 64},
		{spec: "configmodel:n=50,edges=100", wantLabel: "configmodel:n=50,edges=100", wantN: 50},
		{spec: "file:path=../../scenarios/fixtures/gnp2000.el", wantLabel: "file:gnp2000.el", wantN: 2000},
		{spec: "gnp:n=10,p=1.5", wantErr: "p 1.5"},
		{spec: "gnp:n=10,p=0.5,q=1", wantErr: `unknown field "q"`},
		{spec: "ring:n=10", wantErr: "unknown"},
	} {
		wl, err := buildBenchWorkload(tc.spec, 0, 0, 1)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one naming %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.spec, err)
			continue
		}
		if wl.g.N() != tc.wantN || wl.label != tc.wantLabel || wl.edges != int64(wl.g.M()) {
			t.Errorf("%s: built n=%d label %q edges %d, want n=%d label %q", tc.spec, wl.g.N(), wl.label, wl.edges, tc.wantN, tc.wantLabel)
		}
		if file := strings.HasPrefix(tc.spec, "file:"); file != (len(wl.digest) == 64) {
			t.Errorf("%s: digest %q", tc.spec, wl.digest)
		}
	}
}
