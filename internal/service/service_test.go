package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beepmis/internal/scenario"
)

const testSpec = `{
  "name": "service test",
  "graph": {"family": "gnp", "n": 60, "p": 0.4},
  "algorithm": "feedback",
  "trials": 3,
  "seed": 17
}`

func newTestManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	m := New(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Close(ctx)
	})
	return m
}

func waitDone(t *testing.T, m *Manager, job *Job) JobView {
	t.Helper()
	select {
	case <-m.Done(job):
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", job.ID)
	}
	return m.View(job)
}

// TestEndToEnd drives the full HTTP surface: submit, poll status,
// stream events, fetch the result.
func TestEndToEnd(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueCap: 4})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	// Submit.
	resp, err := http.Post(srv.URL+"/v1/scenarios", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d (%s), want 202", resp.StatusCode, body)
	}
	var sub struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("submit response %s: %v", body, err)
	}
	if sub.Cached {
		t.Fatal("first submission reported cached")
	}
	if len(sub.ID) != 64 {
		t.Fatalf("job id %q is not a sha256 hash", sub.ID)
	}

	// Stream events until the terminal status event.
	stream, err := http.Get(srv.URL + "/v1/scenarios/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	events := map[string]int{}
	var terminal struct {
		Status string `json:"status"`
	}
	scanner := bufio.NewScanner(stream.Body)
	current := ""
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			current = strings.TrimPrefix(line, "event: ")
			events[current]++
		case strings.HasPrefix(line, "data: ") && current == "status":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &terminal); err != nil {
				t.Fatalf("terminal event: %v", err)
			}
		}
	}
	if events["progress"] == 0 {
		t.Fatal("stream delivered no progress events")
	}
	if events["status"] != 1 || terminal.Status != string(StatusDone) {
		t.Fatalf("stream terminal = %+v (events %v), want one done status", terminal, events)
	}

	// Poll status.
	resp, err = http.Get(srv.URL + "/v1/scenarios/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.Status != StatusDone || view.Units != 1 || view.Trials != 3 {
		t.Fatalf("status view %+v", view)
	}

	// Fetch the result and check it is the scenario report.
	resp, err = http.Get(srv.URL + "/v1/scenarios/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	result, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: got %d (%s)", resp.StatusCode, result)
	}
	var report struct {
		Hash  string `json:"hash"`
		Units []struct {
			Verified bool `json:"verified"`
		} `json:"units"`
	}
	if err := json.Unmarshal(result, &report); err != nil {
		t.Fatalf("result JSON: %v", err)
	}
	if report.Hash != sub.ID || len(report.Units) != 1 || !report.Units[0].Verified {
		t.Fatalf("report %s", result)
	}

	// List includes the job; unknown ids 404.
	resp, _ = http.Get(srv.URL + "/v1/scenarios")
	var list []JobView
	_ = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Fatalf("list %+v", list)
	}
	resp, _ = http.Get(srv.URL + "/v1/scenarios/deadbeef")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: got %d, want 404", resp.StatusCode)
	}
}

// TestCacheCoalescing submits the same spec concurrently and checks a
// single execution serves everyone — including a post-completion
// resubmission.
func TestCacheCoalescing(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueCap: 8})
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	var runs atomic.Int32
	m.testHookBeforeRun = func(*Job) {
		runs.Add(1)
		once.Do(func() { close(started) })
		<-release
	}

	spec, err := scenario.ParseCompiledBytes([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	first, cached, err := m.Submit(spec)
	if err != nil || cached {
		t.Fatalf("first submit: cached=%v err=%v", cached, err)
	}
	<-started // the job is now mid-"execution"

	// Concurrent duplicates while the job runs must coalesce.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, cached, err := m.Submit(spec)
			if err != nil || !cached || job != first {
				t.Errorf("duplicate submit: job=%p cached=%v err=%v", job, cached, err)
			}
		}()
	}
	wg.Wait()
	close(release)
	waitDone(t, m, first)

	// A repeat after completion is a cache hit with no new execution.
	again, cached, err := m.Submit(spec)
	if err != nil || !cached || again != first {
		t.Fatalf("resubmit: job=%p cached=%v err=%v", again, cached, err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("spec executed %d times, want 1", got)
	}
}

// TestDeterministicResults runs the same spec on two independent
// managers and byte-compares the cached reports — the property that
// makes the cache sound.
func TestDeterministicResults(t *testing.T) {
	results := make([][]byte, 2)
	for i := range results {
		m := newTestManager(t, Options{})
		spec, err := scenario.ParseCompiledBytes([]byte(testSpec))
		if err != nil {
			t.Fatal(err)
		}
		job, _, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if view := waitDone(t, m, job); view.Status != StatusDone {
			t.Fatalf("job failed: %+v", view)
		}
		results[i], _ = m.Result(job)
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatal("two executions of one spec produced different bytes")
	}
}

// TestServiceMatchesCLIPath is the acceptance round trip: an HTTP
// submission's result bytes equal a direct scenario run of the same
// file — what misrun -scenario prints.
func TestServiceMatchesCLIPath(t *testing.T) {
	compiled, err := scenario.ParseCompiledBytes([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	report, err := scenario.Run(context.Background(), compiled, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cliBytes, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Options{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/scenarios", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	job, ok := m.Job(sub.ID)
	if !ok {
		t.Fatalf("job %s not registered", sub.ID)
	}
	waitDone(t, m, job)
	resp, err = http.Get(srv.URL + "/v1/scenarios/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	httpBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	if !bytes.Equal(cliBytes, httpBytes) {
		t.Fatalf("CLI path and HTTP path bytes differ:\ncli:  %s\nhttp: %s", cliBytes, httpBytes)
	}
}

// TestBackpressure fills the queue and checks overflow submissions get
// ErrBusy (HTTP 429) while queued ones survive.
func TestBackpressure(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueCap: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	m.testHookBeforeRun = func(*Job) {
		once.Do(func() { close(started) })
		<-release
	}
	defer close(release)

	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	submit := func(seed int) int {
		doc := fmt.Sprintf(`{"graph":{"family":"gnp","n":40,"p":0.4},"algorithm":"feedback","seed":%d}`, seed)
		resp, err := http.Post(srv.URL+"/v1/scenarios", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := submit(1); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	<-started // worker busy; queue empty again
	if code := submit(2); code != http.StatusAccepted {
		t.Fatalf("second submit (fills queue): %d", code)
	}
	if code := submit(3); code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: got %d, want 429", code)
	}
	// Duplicates of an admitted spec still coalesce — they don't take
	// queue slots, so they succeed even at capacity.
	if code := submit(2); code != http.StatusOK {
		t.Fatalf("duplicate at capacity: got %d, want 200 (cache hit)", code)
	}
}

// TestSubmitRejectsInvalid maps validation failures to 400.
func TestSubmitRejectsInvalid(t *testing.T) {
	m := newTestManager(t, Options{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	for _, doc := range []string{
		`{`,
		`{"graph":{"family":"gnp","n":0,"p":0.5},"algorithm":"feedback"}`,
		`{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"warp"}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/scenarios", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: got %d (%s), want 400", doc, resp.StatusCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("submit %s: error body %s", doc, body)
		}
	}
}

// TestSubmitSparseBounds pins the service's admission behaviour for
// large graphs: a million-node spec whose plan uses the sparse CSR
// engine is accepted at the door, while a dense-matrix pin on the same
// graph is refused with the reason — the 400 a client can act on, not
// an OOM minutes into a run.
func TestSubmitSparseBounds(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueCap: 4})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	dense := `{"graph":{"family":"gnp","n":1000000,"p":0.00001},"algorithm":"feedback","engine":"bitset"}`
	resp, err := http.Post(srv.URL+"/v1/scenarios", "application/json", strings.NewReader(dense))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dense-pin submit: got %d (%s), want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "dense adjacency matrix") {
		t.Fatalf("dense-pin error %s does not name the representation", body)
	}

	// A sparse-engine spec (kept small so the test stays fast) runs the
	// whole submit→done path.
	sparse := `{"graph":{"family":"gnp","n":400,"p":0.01},"algorithm":"feedback","engine":"sparse","shards":2,"seed":3}`
	compiled, err := scenario.ParseCompiledBytes([]byte(sparse))
	if err != nil {
		t.Fatal(err)
	}
	job, cached, err := m.Submit(compiled)
	if err != nil || cached {
		t.Fatalf("sparse submit: cached=%v err=%v", cached, err)
	}
	if view := waitDone(t, m, job); view.Status != StatusDone {
		t.Fatalf("sparse job ended %s: %s", view.Status, view.Error)
	}
}

// TestResultBeforeDone polls the result of a running job: 409 with the
// job snapshot, not an error or a partial result.
func TestResultBeforeDone(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueCap: 4})
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	m.testHookBeforeRun = func(*Job) {
		once.Do(func() { close(started) })
		<-release
	}
	defer close(release)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/scenarios", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	<-started
	resp, err = http.Get(srv.URL + "/v1/scenarios/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	_ = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || view.Status != StatusRunning {
		t.Fatalf("early result: code %d view %+v, want 409/running", resp.StatusCode, view)
	}
}

// TestGracefulShutdown closes a manager with queued work: queued jobs
// fail with the shutdown error, and Close returns.
func TestGracefulShutdown(t *testing.T) {
	m := New(Options{Workers: 1, QueueCap: 4})
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	m.testHookBeforeRun = func(*Job) {
		once.Do(func() { close(started) })
		<-release
	}

	running, _, err := m.Submit(mustSpec(t, `{"graph":{"family":"gnp","n":40,"p":0.4},"algorithm":"feedback","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := m.Submit(mustSpec(t, `{"graph":{"family":"gnp","n":40,"p":0.4},"algorithm":"feedback","seed":2}`))
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- m.Close(ctx)
	}()
	// Submissions during shutdown are refused.
	deadline := time.After(5 * time.Second)
	for {
		_, _, err := m.Submit(mustSpec(t, `{"graph":{"family":"gnp","n":40,"p":0.4},"algorithm":"feedback","seed":3}`))
		if err != nil {
			if !strings.Contains(err.Error(), "shutting down") {
				t.Fatalf("submit during shutdown: %v", err)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("Close never started refusing submissions")
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if view := m.View(running); view.Status != StatusDone {
		t.Fatalf("running job after shutdown: %+v", view)
	}
	if view := m.View(queued); view.Status != StatusFailed || !strings.Contains(view.Error, "shutting down") {
		t.Fatalf("queued job after shutdown: %+v", view)
	}
}

// TestJobEviction bounds the cache: once MaxJobs is exceeded, the
// oldest finished jobs are dropped and resubmitting one re-executes.
func TestJobEviction(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueCap: 8, MaxJobs: 2})
	doc := func(seed int) *scenario.Compiled {
		return mustSpec(t, fmt.Sprintf(`{"graph":{"family":"gnp","n":30,"p":0.4},"algorithm":"feedback","seed":%d}`, seed))
	}
	var first *Job
	for seed := 1; seed <= 4; seed++ {
		job, cached, err := m.Submit(doc(seed))
		if err != nil || cached {
			t.Fatalf("seed %d: cached=%v err=%v", seed, cached, err)
		}
		if seed == 1 {
			first = job
		}
		waitDone(t, m, job)
	}
	if stats := m.StatsNow(); stats.Jobs > 2 {
		t.Fatalf("retained %d jobs, want ≤ MaxJobs=2", stats.Jobs)
	}
	if _, ok := m.Job(first.ID); ok {
		t.Fatal("oldest finished job survived eviction")
	}
	// Resubmission of an evicted spec re-executes (cached=false) and
	// lands back in the cache.
	job, cached, err := m.Submit(doc(1))
	if err != nil || cached {
		t.Fatalf("evicted resubmit: cached=%v err=%v", cached, err)
	}
	if view := waitDone(t, m, job); view.Status != StatusDone {
		t.Fatalf("re-executed job: %+v", view)
	}
}

func mustSpec(t *testing.T, doc string) *scenario.Compiled {
	t.Helper()
	c, err := scenario.ParseCompiledBytes([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return c
}
