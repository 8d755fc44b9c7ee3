package service

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestFixedPoolStartsNoControlLoop pins the pool's footprint: New
// starts exactly Workers goroutines — its workers, with no control
// goroutine or ticker beside them — and Close leaves none running.
func TestFixedPoolStartsNoControlLoop(t *testing.T) {
	for _, workers := range []int{1, 3} {
		before := runtime.NumGoroutine()
		m := New(Options{Workers: workers})
		started := runtime.NumGoroutine() - before
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := m.Close(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if started != workers {
			t.Errorf("Workers %d: started %d goroutines, want %d", workers, started, workers)
		}
		// Close has waited for the pool; let the exited goroutines
		// leave the count before the next row measures.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines still running after Close", runtime.NumGoroutine()-before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestResultsByteIdenticalAcrossWorkerCounts is the determinism end to
// end: the same scenario set run through a one-worker pool and a
// four-worker pool must produce byte-identical result JSON — the
// worker count is a performance knob, never a semantic one. Each run
// holds its first jobs until every spec is submitted and Workers of
// them execute at once, so the four-worker run really runs four jobs
// side by side, and the queue-depth high-water gauge must show the
// rest waiting. Run with -race in CI, where those workers race on the
// manager.
func TestResultsByteIdenticalAcrossWorkerCounts(t *testing.T) {
	specs := make([]string, 5)
	for i := range specs {
		specs[i] = fmt.Sprintf(`{
  "graph": {"family": "gnp", "n": 70, "p": 0.3},
  "algorithm": "feedback",
  "trials": 2,
  "seed": %d
}`, i+100)
	}

	results := func(workers int) map[string][]byte {
		m := newTestManager(t, Options{Workers: workers, QueueCap: 16})
		var started atomic.Int32
		allBusy, submitted := make(chan struct{}), make(chan struct{})
		m.testHookBeforeRun = func(*Job) {
			if started.Add(1) == int32(workers) {
				close(allBusy)
			}
			<-allBusy
			<-submitted
		}
		jobs := make([]*Job, 0, len(specs))
		for _, s := range specs {
			job, _, err := m.Submit(mustSpec(t, s))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job)
		}
		close(submitted)
		// At most Workers jobs left the queue before the last submit.
		if hw := m.Metrics().QueueHighWater.Value(); hw < int64(len(specs)-workers) {
			t.Fatalf("Workers %d: queue high-water %d, want ≥ %d", workers, hw, len(specs)-workers)
		}
		out := make(map[string][]byte, len(jobs))
		for _, job := range jobs {
			if v := waitDone(t, m, job); v.Status != StatusDone {
				t.Fatalf("job %s finished %s: %s", v.ID, v.Status, v.Error)
			}
			b, _ := m.Result(job)
			out[job.ID] = b
		}
		return out
	}

	one := results(1)
	four := results(4)
	if len(one) != len(specs) || len(four) != len(specs) {
		t.Fatalf("job counts: one worker %d, four workers %d, want %d", len(one), len(four), len(specs))
	}
	for id, want := range one {
		if got, ok := four[id]; !ok || !bytes.Equal(got, want) {
			t.Fatalf("job %s: four-worker result differs from one-worker result", id)
		}
	}
}

// TestDrainFlipsReadyBeforeJobsFinish pins the graceful-drain
// ordering: the instant Drain is called, readiness is false and new
// submissions are refused — while an in-flight job is still running
// and its eventual result still lands. Close completes the drain.
func TestDrainFlipsReadyBeforeJobsFinish(t *testing.T) {
	release := make(chan struct{})
	m := newTestManager(t, Options{Workers: 1, QueueCap: 4})
	m.testHookBeforeRun = func(*Job) { <-release }

	job, _, err := m.Submit(mustSpec(t, testSpec))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker holds the job in StatusRunning.
	deadline := time.Now().Add(5 * time.Second)
	for m.View(job).Status != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	m.Drain()
	if m.Ready() {
		t.Fatal("manager still ready after Drain with a job in flight")
	}
	if v := m.View(job); v.Status != StatusRunning {
		t.Fatalf("drain disturbed the in-flight job: %s", v.Status)
	}
	if _, _, err := m.Submit(mustSpec(t, `{
  "graph": {"family": "gnp", "n": 30, "p": 0.4},
  "algorithm": "feedback",
  "seed": 999
}`)); err != ErrClosed {
		t.Fatalf("submission during drain: err=%v, want ErrClosed", err)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if v := m.View(job); v.Status != StatusDone {
		t.Fatalf("in-flight job after drained Close: %s (%s)", v.Status, v.Error)
	}
	if _, ok := m.Result(job); !ok {
		t.Fatal("result not servable after drain completed")
	}
}
