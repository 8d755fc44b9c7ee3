package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"beepmis/internal/service"
)

const scenarioDoc = `{
  "name": "cli/service round trip",
  "graph": {"family": "gnp", "n": 70, "p": 0.4},
  "algorithm": "feedback",
  "trials": 4,
  "seed": 23
}`

func writeScenario(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScenarioFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", writeScenario(t, scenarioDoc)}, &out); err != nil {
		t.Fatal(err)
	}
	var report struct {
		Hash  string `json:"hash"`
		Units []struct {
			Trials   int  `json:"trials"`
			Verified bool `json:"verified"`
		} `json:"units"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("scenario output is not a report: %v\n%s", err, out.String())
	}
	if len(report.Units) != 1 || report.Units[0].Trials != 4 || !report.Units[0].Verified {
		t.Fatalf("report %s", out.String())
	}
}

func TestScenarioHashFlag(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-scenario", writeScenario(t, scenarioDoc), "-hash"}, &a); err != nil {
		t.Fatal(err)
	}
	// Engine/shards/workers are performance knobs; the hash must not move.
	tuned := strings.Replace(scenarioDoc, `"trials": 4,`, `"trials": 4, "engine": "scalar", "workers": 2,`, 1)
	if err := run([]string{"-scenario", writeScenario(t, tuned), "-hash"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() || len(strings.TrimSpace(a.String())) != 64 {
		t.Fatalf("hashes differ or malformed: %q vs %q", a.String(), b.String())
	}
}

func TestScenarioErrors(t *testing.T) {
	cases := [][]string{
		{"-scenario", "/definitely/missing.json"},
		{"-scenario", "spec.json", "-graph", "gnp:n=50,p=0.5"}, // workload flags conflict
		{"-hash"}, // -hash without -scenario
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
	bad := writeScenario(t, `{"graph":{"family":"gnp","n":0,"p":0.5},"algorithm":"feedback"}`)
	if err := run([]string{"-scenario", bad}, &bytes.Buffer{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestNoisyAsyncGoldenRoundTrip runs the committed noisy-async golden
// scenario — staggered wake-up over a 5%-loss channel — through both the
// CLI and a misd-style HTTP submission: the bytes must match, and the
// fault verifier must certify the run clean (independence every round,
// maximality at termination), which is what makes this particular
// (graph, seed) pair golden.
func TestNoisyAsyncGoldenRoundTrip(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "noisy-async.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if err := run([]string{"-scenario", writeScenario(t, string(doc))}, &cli); err != nil {
		t.Fatal(err)
	}
	var report struct {
		Units []struct {
			Verified              bool `json:"verified"`
			IndependentEveryRound bool `json:"independent_every_round"`
			MaximalAtTermination  bool `json:"maximal_at_termination"`
			Violations            int  `json:"independence_violations"`
		} `json:"units"`
	}
	if err := json.Unmarshal(cli.Bytes(), &report); err != nil {
		t.Fatalf("not a report: %v", err)
	}
	u := report.Units[0]
	if !u.Verified || !u.IndependentEveryRound || !u.MaximalAtTermination || u.Violations != 0 {
		t.Fatalf("golden noisy scenario no longer verifies clean: %+v (pick a new seed if the fault model changed)", u)
	}

	mgr := service.New(service.Options{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Close(ctx)
	}()
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/scenarios", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	job, ok := mgr.Job(sub.ID)
	if !ok {
		t.Fatalf("job %s missing", sub.ID)
	}
	select {
	case <-mgr.Done(job):
	case <-time.After(30 * time.Second):
		t.Fatal("noisy-async job never finished")
	}
	res, err := http.Get(srv.URL + "/v1/scenarios/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	httpBytes, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !bytes.Equal(cli.Bytes(), httpBytes) {
		t.Fatalf("noisy-async CLI and HTTP result bytes differ:\ncli:  %s\nhttp: %s", cli.String(), httpBytes)
	}
}

// TestScenarioRoundTripWithService is the PR's acceptance criterion:
// the same spec file through `misrun -scenario` and through a misd-style
// HTTP submission produces byte-identical result JSON, and resubmitting
// is served from the cache without re-execution.
func TestScenarioRoundTripWithService(t *testing.T) {
	var cli bytes.Buffer
	if err := run([]string{"-scenario", writeScenario(t, scenarioDoc)}, &cli); err != nil {
		t.Fatal(err)
	}

	mgr := service.New(service.Options{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Close(ctx)
	}()
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()

	submit := func() (id string, cached bool) {
		resp, err := http.Post(srv.URL+"/v1/scenarios", "application/json", strings.NewReader(scenarioDoc))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sub struct {
			ID     string `json:"id"`
			Cached bool   `json:"cached"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		return sub.ID, sub.Cached
	}

	id, cached := submit()
	if cached {
		t.Fatal("first submission reported cached")
	}
	job, ok := mgr.Job(id)
	if !ok {
		t.Fatalf("job %s missing", id)
	}
	select {
	case <-mgr.Done(job):
	case <-time.After(30 * time.Second):
		t.Fatal("job never finished")
	}

	resp, err := http.Get(srv.URL + "/v1/scenarios/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	httpBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(cli.Bytes(), httpBytes) {
		t.Fatalf("misrun -scenario and HTTP result bytes differ:\ncli:  %s\nhttp: %s", cli.String(), httpBytes)
	}

	// Resubmission: cache hit, still exactly one execution recorded.
	if _, cached := submit(); !cached {
		t.Fatal("resubmission was not served from the cache")
	}
	if stats := mgr.StatsNow(); stats.Done != 1 || stats.Jobs != 1 {
		t.Fatalf("stats after resubmit: %+v, want one cached job", stats)
	}
}
