package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beepmis/internal/obs"
	"beepmis/internal/scenario"
)

// newBareJob builds a running job the in-package tests can publish to
// without going through the scheduler.
func newBareJob() *Job {
	return &Job{
		ID:        "bare",
		status:    StatusRunning,
		submitted: time.Now(),
		started:   time.Now(),
		subs:      make(map[chan scenario.Event]struct{}),
		done:      make(chan struct{}),
	}
}

// TestSlowSubscriberDropsEvents pins the fan-out overflow policy: a
// subscriber that stops draining loses intermediate events (counted, so
// operators can see it) while the publisher never blocks.
func TestSlowSubscriberDropsEvents(t *testing.T) {
	m := newTestManager(t, Options{})
	job := newBareJob()
	_, live := m.Subscribe(job)

	const extra = 10
	total := cap(live) + extra
	donePub := make(chan struct{})
	go func() {
		defer close(donePub)
		for i := 0; i < total; i++ {
			m.publish(job, scenario.Event{Type: scenario.EventRound, Round: i + 1})
		}
	}()
	select {
	case <-donePub:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a slow subscriber")
	}
	if got := m.Metrics().EventsDropped.Value(); got != extra {
		t.Fatalf("dropped %d events, want %d", got, extra)
	}
	// The buffer holds the oldest events; the history holds them all
	// (bounded separately by maxEventHistory).
	if got := len(live); got != cap(live) {
		t.Fatalf("subscriber buffer holds %d, want full %d", got, cap(live))
	}
	if got := len(job.events); got != total {
		t.Fatalf("history holds %d, want %d", got, total)
	}
}

// TestUnsubscribeAfterFinish: finish closes and detaches every
// subscriber itself, so the SSE handler's deferred Unsubscribe must be
// a harmless no-op — no double close, no panic, no gauge drift.
func TestUnsubscribeAfterFinish(t *testing.T) {
	m := newTestManager(t, Options{})
	job := newBareJob()
	_, live := m.Subscribe(job)
	if got := m.Metrics().Subscribers.Value(); got != 1 {
		t.Fatalf("subscriber gauge %d, want 1", got)
	}
	m.finish(job, []byte("{}"), nil)
	if _, open := <-live; open {
		t.Fatal("finish did not close the subscriber channel")
	}
	m.Unsubscribe(job, live) // must not panic or re-close
	if got := m.Metrics().Subscribers.Value(); got != 0 {
		t.Fatalf("subscriber gauge %d after finish+unsubscribe, want 0", got)
	}
	// And a subscription opened after the terminal state gets a closed
	// channel without touching the gauge.
	_, lateCh := m.Subscribe(job)
	if _, open := <-lateCh; open {
		t.Fatal("post-finish subscription channel not closed")
	}
	if got := m.Metrics().Subscribers.Value(); got != 0 {
		t.Fatalf("subscriber gauge %d after post-finish subscribe, want 0", got)
	}
}

// TestEventHistoryTruncation pins the bounded-replay contract: the
// history keeps exactly the newest maxEventHistory events.
func TestEventHistoryTruncation(t *testing.T) {
	m := newTestManager(t, Options{})
	job := newBareJob()
	const overflow = 50
	for i := 0; i < maxEventHistory+overflow; i++ {
		m.publish(job, scenario.Event{Type: scenario.EventRound, Round: i + 1})
	}
	history, live := m.Subscribe(job)
	defer m.Unsubscribe(job, live)
	if len(history) != maxEventHistory {
		t.Fatalf("history length %d, want %d", len(history), maxEventHistory)
	}
	if got := history[0].Round; got != overflow+1 {
		t.Fatalf("oldest retained event is round %d, want %d (oldest %d dropped)", got, overflow+1, overflow)
	}
	if got := history[len(history)-1].Round; got != maxEventHistory+overflow {
		t.Fatalf("newest retained event is round %d, want %d", got, maxEventHistory+overflow)
	}
}

// TestServiceMetricsLifecycle drives real submissions through the pool
// and checks the telemetry tells the true story: one miss and one
// execution per distinct spec, hits for re-submissions, latency
// histograms fed, and the queue depth settling back to zero.
func TestServiceMetricsLifecycle(t *testing.T) {
	sm := &obs.ServiceMetrics{}
	em := &obs.EngineMetrics{}
	m := newTestManager(t, Options{Workers: 1, QueueCap: 8, Metrics: sm, EngineMetrics: em})

	job, cached, err := m.Submit(mustSpec(t, testSpec))
	if err != nil || cached {
		t.Fatalf("first submit: cached=%v err=%v", cached, err)
	}
	waitDone(t, m, job)

	// Re-submission of the finished spec is a cache hit.
	if _, cached, err = m.Submit(mustSpec(t, testSpec)); err != nil || !cached {
		t.Fatalf("resubmit: cached=%v err=%v", cached, err)
	}

	if got := sm.CacheMisses.Value(); got != 1 {
		t.Fatalf("cache misses %d, want 1", got)
	}
	if got := sm.CacheHits.Value(); got != 1 {
		t.Fatalf("cache hits %d, want 1", got)
	}
	if got := sm.JobsDone.Value(); got != 1 {
		t.Fatalf("jobs done %d, want 1", got)
	}
	if got := sm.QueueDepth.Value(); got != 0 {
		t.Fatalf("queue depth %d after drain, want 0", got)
	}
	if got := sm.QueueLatencyNs.Count(); got != 1 {
		t.Fatalf("queue latency observations %d, want 1", got)
	}
	if got := sm.RunLatencyNs.Count(); got != 1 {
		t.Fatalf("run latency observations %d, want 1", got)
	}
	// The engine bundle aggregated the job's trials.
	if got := em.Runs.Value(); got != 3 {
		t.Fatalf("engine runs %d, want 3 (the spec's trials)", got)
	}
	if em.Rounds.Value() == 0 || em.Phase[obs.PhasePropagate].Count() == 0 {
		t.Fatal("engine metrics recorded no rounds from a service-run scenario")
	}

	// The view carries the derived latency fields.
	view := m.View(job)
	if view.QueueMs < 0 || view.RunMs <= 0 {
		t.Fatalf("derived latencies queue=%vms run=%vms", view.QueueMs, view.RunMs)
	}
}

// TestCoalescedSubmissionCounted: a duplicate of an in-flight job is a
// coalesce, not a hit.
func TestCoalescedSubmissionCounted(t *testing.T) {
	sm := &obs.ServiceMetrics{}
	release := make(chan struct{})
	m := newTestManager(t, Options{Workers: 1, QueueCap: 8, Metrics: sm})
	m.testHookBeforeRun = func(*Job) { <-release }

	job, _, err := m.Submit(mustSpec(t, testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, cached, err := m.Submit(mustSpec(t, testSpec)); err != nil || !cached {
		t.Fatalf("duplicate submit: cached=%v err=%v", cached, err)
	}
	close(release)
	waitDone(t, m, job)
	if got := sm.Coalesced.Value(); got != 1 {
		t.Fatalf("coalesced %d, want 1", got)
	}
	if got := sm.CacheHits.Value(); got != 0 {
		t.Fatalf("cache hits %d, want 0 (duplicate was in flight)", got)
	}
}

// TestRejectedSubmissionCounted: queue-full backpressure shows up in
// the rejected counter.
func TestRejectedSubmissionCounted(t *testing.T) {
	sm := &obs.ServiceMetrics{}
	release := make(chan struct{})
	m := newTestManager(t, Options{Workers: 1, QueueCap: 1, Metrics: sm})
	m.testHookBeforeRun = func(*Job) { <-release }
	defer close(release)

	// First fills the worker, second fills the queue, third bounces.
	specFor := func(seed int) *scenario.Compiled {
		return mustSpec(t, fmt.Sprintf(`{
  "graph": {"family": "gnp", "n": 40, "p": 0.4},
  "algorithm": "feedback",
  "trials": 1,
  "seed": %d
}`, seed))
	}
	if _, _, err := m.Submit(specFor(1)); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick up the first job so the queue slot
	// frees for the second.
	deadline := time.After(5 * time.Second)
	for {
		if v := m.View(mustJob(t, m, specFor(1).Hash)); v.Status == StatusRunning {
			break
		}
		select {
		case <-deadline:
			t.Fatal("first job never started")
		case <-time.After(time.Millisecond):
		}
	}
	if _, _, err := m.Submit(specFor(2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit(specFor(3)); err != ErrBusy {
		t.Fatalf("third submit error %v, want ErrBusy", err)
	}
	if got := sm.Rejected.Value(); got != 1 {
		t.Fatalf("rejected %d, want 1", got)
	}
}

// TestReadyzSplitsFromHealthz: both probes are green while serving;
// the moment Drain begins — with a job still running, before the drain
// completes — readiness flips to 503 while liveness stays 200, and the
// split persists through Close.
func TestReadyzSplitsFromHealthz(t *testing.T) {
	m := New(Options{Workers: 1})
	release := make(chan struct{})
	m.testHookBeforeRun = func(*Job) { <-release }
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	status := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/v1/healthz"); got != http.StatusOK {
		t.Fatalf("healthz %d, want 200", got)
	}
	if got := status("/v1/readyz"); got != http.StatusOK {
		t.Fatalf("readyz %d, want 200", got)
	}

	// Put a job in flight and hold it there, then start draining: the
	// readiness flip must be observable before the drain completes.
	job, _, err := m.Submit(mustSpec(t, testSpec))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.View(job).Status != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	m.Drain()
	if got := status("/v1/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain %d, want 503 before the drain completes", got)
	}
	if got := status("/v1/healthz"); got != http.StatusOK {
		t.Fatalf("healthz during drain %d, want 200 (liveness persists)", got)
	}
	if v := m.View(job); v.Status != StatusRunning {
		t.Fatalf("job should still be running while readyz 503s, got %s", v.Status)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := status("/v1/healthz"); got != http.StatusOK {
		t.Fatalf("healthz after close %d, want 200 (liveness persists)", got)
	}
	if got := status("/v1/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz after close %d, want 503", got)
	}
}

func mustJob(t *testing.T, m *Manager, id string) *Job {
	t.Helper()
	job, ok := m.Job(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	return job
}

// TestSSEFanoutThousandSubscribers is the fan-out stress test: one job,
// a thousand subscribers, half of which never drain. The invariant is
// exact accounting — every published event either lands in some
// subscriber's channel or increments the dropped counter, so
// delivered + dropped must equal events × subscribers with no slack in
// either direction. Afterwards the subscriber gauge returns to zero.
func TestSSEFanoutThousandSubscribers(t *testing.T) {
	const (
		subscribers = 1000
		active      = 500 // drained concurrently; the rest sit on full buffers
		events      = 300 // > the 256-slot subscriber buffer, forcing drops
	)
	m := newTestManager(t, Options{})
	sm := m.Metrics()
	job := newBareJob()

	chans := make([]<-chan scenario.Event, subscribers)
	for i := range chans {
		_, chans[i] = m.Subscribe(job)
	}
	if got := sm.Subscribers.Value(); got != subscribers {
		t.Fatalf("subscriber gauge %d, want %d", got, subscribers)
	}

	var delivered atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < active; i++ {
		wg.Add(1)
		go func(ch <-chan scenario.Event) {
			defer wg.Done()
			for range ch {
				delivered.Add(1)
			}
		}(chans[i])
	}

	for i := 0; i < events; i++ {
		m.publish(job, scenario.Event{Type: scenario.EventRound, Round: i + 1})
	}
	m.finish(job, []byte("{}"), nil) // closes every subscriber channel
	wg.Wait()

	// Events parked in the never-drained buffers were delivered, not
	// dropped; count them so the accounting below is exact.
	for _, ch := range chans[active:] {
		for range ch {
			delivered.Add(1)
		}
	}

	dropped := sm.EventsDropped.Value()
	if total := uint64(delivered.Load()) + dropped; total != subscribers*events {
		t.Fatalf("delivered %d + dropped %d = %d, want exactly %d",
			delivered.Load(), dropped, total, subscribers*events)
	}
	// 500 undrained subscribers each overflow a 256-slot buffer over 300
	// events, so drops are guaranteed, not incidental.
	if want := uint64((subscribers - active) * (events - 256)); dropped < want {
		t.Fatalf("dropped %d, want ≥ %d from the undrained half alone", dropped, want)
	}
	if got := sm.Subscribers.Value(); got != 0 {
		t.Fatalf("subscriber gauge %d after finish, want 0", got)
	}
}
