package load

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"beepmis/internal/obs"
	"beepmis/internal/service"
)

const tinySpec = `{"graph":{"family":"gnp","n":30,"p":0.2},"algorithm":"feedback","trials":1,"seed":1}`

// newTestService assembles the same surface misd serves — the /v1 API
// plus /metrics.json over a shared registry — around an in-process
// Manager, so load tests exercise the real scrape-and-fold path.
func newTestService(t *testing.T, opts service.Options) *httptest.Server {
	t.Helper()
	sm := &obs.ServiceMetrics{}
	em := &obs.EngineMetrics{}
	opts.Metrics, opts.EngineMetrics = sm, em
	m := service.New(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Close(ctx)
	})
	reg := obs.NewRegistry()
	sm.Register(reg)
	em.Register(reg)
	mux := http.NewServeMux()
	mux.Handle("/v1/", m.Handler())
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestScheduleDeterministic: the same config precomputes the same
// request stream — bodies, hit flags and gaps — byte for byte, and a
// different seed moves it.
func TestScheduleDeterministic(t *testing.T) {
	cfg := Config{
		BaseURL: "http://x", Mode: ModeOpen, Requests: 64, Rate: 100,
		Specs: [][]byte{[]byte(tinySpec)}, HitFraction: 0.5, Seed: 7,
	}.withDefaults()
	a, err := buildSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) || a[i].hit != b[i].hit || a[i].gapNs != b[i].gapNs {
			t.Fatalf("request %d differs between identical builds", i)
		}
	}
	cfg.Seed = 8
	c, err := buildSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if !bytes.Equal(a[i].body, c[i].body) || a[i].gapNs != c[i].gapNs {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed change did not move the schedule")
	}
}

// TestScheduleMix pins the hit/miss structure: the first request is
// always a miss, every hit repeats an earlier body exactly, every miss
// mints a body never seen before, and the realised hit count tracks
// the configured fraction.
func TestScheduleMix(t *testing.T) {
	cfg := Config{
		BaseURL: "http://x", Requests: 400,
		Specs: [][]byte{[]byte(tinySpec)}, HitFraction: 0.5, Seed: 3,
	}.withDefaults()
	reqs, err := buildSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reqs[0].hit {
		t.Fatal("first request cannot be a hit: nothing was issued yet")
	}
	seen := map[string]bool{}
	hits := 0
	for i, r := range reqs {
		if r.hit {
			hits++
			if !seen[string(r.body)] {
				t.Fatalf("request %d marked hit but its body was never issued", i)
			}
		} else {
			if seen[string(r.body)] {
				t.Fatalf("request %d marked miss but its body repeats an earlier one", i)
			}
			seen[string(r.body)] = true
		}
	}
	if hits < 140 || hits > 260 {
		t.Fatalf("hit count %d far from 400×0.5", hits)
	}
}

// TestScheduleArrivals: uniform gaps are constant at 1/rate; Poisson
// gaps average near it.
func TestScheduleArrivals(t *testing.T) {
	base := Config{
		BaseURL: "http://x", Mode: ModeOpen, Requests: 2000, Rate: 1000,
		Specs: [][]byte{[]byte(tinySpec)}, Seed: 5,
	}
	mean := float64(time.Second) / base.Rate

	uni := base
	uni.Arrival = ArrivalUniform
	reqs, err := buildSchedule(uni.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if r.gapNs != int64(mean) {
			t.Fatalf("uniform gap %d at request %d, want %d", r.gapNs, i, int64(mean))
		}
	}

	poi := base
	poi.Arrival = ArrivalPoisson
	reqs, err = buildSchedule(poi.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, r := range reqs {
		sum += r.gapNs
	}
	avg := float64(sum) / float64(len(reqs))
	if avg < 0.85*mean || avg > 1.15*mean {
		t.Fatalf("poisson mean gap %.0fns, want within 15%% of %.0fns", avg, mean)
	}
}

// TestPerturbSeed: the seed field moves, nothing else does, and the
// output is deterministic.
func TestPerturbSeed(t *testing.T) {
	out, err := perturbSeed([]byte(tinySpec), 42)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	if m["seed"] != float64(42) {
		t.Fatalf("seed not rewritten: %v", m["seed"])
	}
	if m["algorithm"] != "feedback" || m["trials"] != float64(1) {
		t.Fatalf("perturbation disturbed other fields: %v", m)
	}
	again, err := perturbSeed([]byte(tinySpec), 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, again) {
		t.Fatal("perturbSeed is not deterministic")
	}
	zero, err := perturbSeed([]byte(tinySpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	var z map[string]any
	_ = json.Unmarshal(zero, &z)
	if z["seed"] == float64(0) {
		t.Fatal("seed 0 must be forced non-zero (the compiler normalises 0 to 1)")
	}
}

// TestClosedLoopRun is the end-to-end: a closed-loop run against a
// live in-process service completes every request, the hit/miss
// bookkeeping agrees between client and server, the scrape fold
// carries the server's story, and the cross-check raises no findings.
func TestClosedLoopRun(t *testing.T) {
	srv := newTestService(t, service.Options{Workers: 2, QueueCap: 64})
	const requests = 24
	rep, err := Run(context.Background(), Config{
		BaseURL:       srv.URL,
		Mode:          ModeClosed,
		Concurrency:   4,
		Requests:      requests,
		Specs:         [][]byte{[]byte(tinySpec)},
		HitFraction:   0.5,
		Subscribers:   5,
		SubscribeJobs: 1,
		Seed:          11,
		PollInterval:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != requests || rep.Errors != 0 || rep.Rejected != 0 {
		t.Fatalf("completed %d, errors %d, rejected %d; want %d/0/0", rep.Completed, rep.Errors, rep.Rejected, requests)
	}
	if rep.E2E.Count != requests || rep.E2E.P50Ns <= 0 || rep.E2E.P99Ns < rep.E2E.P50Ns {
		t.Fatalf("broken e2e summary: %+v", rep.E2E)
	}
	if rep.AchievedRPS <= 0 {
		t.Fatalf("achieved rps %v", rep.AchievedRPS)
	}
	if rep.CacheHits+rep.E2EMiss.Count != requests {
		t.Fatalf("cached %d + fresh %d ≠ %d", rep.CacheHits, rep.E2EMiss.Count, requests)
	}
	if rep.CacheHits == 0 {
		t.Fatal("hit fraction 0.5 produced no cached completions")
	}
	s := rep.Server
	if s == nil {
		t.Fatal("scrape fold missing from report")
	}
	// Client and server must tell the same story: every fresh client
	// completion is a server cache miss, every cached one a server
	// cache hit or coalesce, and all executed jobs finished.
	if s.CacheMisses != rep.E2EMiss.Count {
		t.Fatalf("server misses %d ≠ client fresh completions %d", s.CacheMisses, rep.E2EMiss.Count)
	}
	if s.CacheHits+s.Coalesced != rep.CacheHits {
		t.Fatalf("server hits %d + coalesced %d ≠ client cached %d", s.CacheHits, s.Coalesced, rep.CacheHits)
	}
	if s.JobsDone != s.CacheMisses || s.JobsFailed != 0 {
		t.Fatalf("server jobs done %d / failed %d, want %d / 0", s.JobsDone, s.JobsFailed, s.CacheMisses)
	}
	if s.RunMeanNs <= 0 {
		t.Fatalf("run-scoped server run mean %v", s.RunMeanNs)
	}
	if rep.SSEEvents == 0 {
		t.Fatal("5 subscribers on a fresh job received no events")
	}
	if rep.SSEErrors != 0 {
		t.Fatalf("sse errors %d", rep.SSEErrors)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("cross-check findings on a healthy run: %v", rep.Findings)
	}
}

// TestOpenLoopRun: the open-loop dispatcher honours the schedule and
// accounts for every arrival (completed + rejected + errors + shed =
// offered).
func TestOpenLoopRun(t *testing.T) {
	srv := newTestService(t, service.Options{Workers: 2, QueueCap: 64})
	const requests = 30
	rep, err := Run(context.Background(), Config{
		BaseURL:      srv.URL,
		Mode:         ModeOpen,
		Requests:     requests,
		Rate:         400,
		Arrival:      ArrivalUniform,
		Specs:        [][]byte{[]byte(tinySpec)},
		Seed:         13,
		PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Completed + rep.Rejected + rep.Errors + rep.Shed; got != requests {
		t.Fatalf("outcome accounting: %d completed + %d rejected + %d errors + %d shed = %d, want %d",
			rep.Completed, rep.Rejected, rep.Errors, rep.Shed, got, requests)
	}
	if rep.Completed == 0 {
		t.Fatal("open-loop run completed nothing")
	}
	if rep.Errors != 0 {
		t.Fatalf("errors %d", rep.Errors)
	}
	if rep.OfferedRate != 400 || rep.Arrival != ArrivalUniform {
		t.Fatalf("open-loop stamps missing: %+v", rep)
	}
}

// TestRecorderZeroAlloc holds RecordComplete to its contract: the
// per-completion hot path performs no allocations.
func TestRecorderZeroAlloc(t *testing.T) {
	var rec Recorder
	cached := false
	if avg := testing.AllocsPerRun(1000, func() {
		rec.RecordComplete(12_345, 67_890, cached)
		cached = !cached
	}); avg != 0 {
		t.Fatalf("RecordComplete allocates %.1f times per call, want 0", avg)
	}
}

// TestValidate rejects the configs the dispatcher cannot honour.
func TestValidate(t *testing.T) {
	bad := []Config{
		{},
		{BaseURL: "http://x"},
		{BaseURL: "http://x", Specs: [][]byte{[]byte("{}")}, Mode: "burst"},
		{BaseURL: "http://x", Specs: [][]byte{[]byte("{}")}, Arrival: "bursty"},
		{BaseURL: "http://x", Specs: [][]byte{[]byte("{}")}, HitFraction: 1.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
	ok := Config{BaseURL: "http://x", Specs: [][]byte{[]byte("{}")}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}
