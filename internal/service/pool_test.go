package service

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"beepmis/internal/obs"
)

// TestFixedPoolStartsNoControlLoop pins the fixed pool's footprint: a
// Manager whose MaxWorkers does not exceed Workers starts exactly
// Workers goroutines — its workers — and no control goroutine or
// ticker. The autoscaling row shows the count sees the control loop.
func TestFixedPoolStartsNoControlLoop(t *testing.T) {
	for _, tc := range []struct{ workers, maxWorkers, want int }{
		{workers: 1, maxWorkers: 0, want: 1},
		{workers: 1, maxWorkers: 1, want: 1},
		{workers: 3, maxWorkers: 0, want: 3},
		{workers: 3, maxWorkers: 2, want: 3},
		{workers: 1, maxWorkers: 4, want: 2},
	} {
		before := runtime.NumGoroutine()
		m := New(Options{Workers: tc.workers, MaxWorkers: tc.maxWorkers})
		started := runtime.NumGoroutine() - before
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := m.Close(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if started != tc.want {
			t.Errorf("Workers %d, MaxWorkers %d: started %d goroutines, want %d",
				tc.workers, tc.maxWorkers, started, tc.want)
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

// step is one sample fed to the scaler with the expected delta.
type step struct {
	depth     int
	wantDelta int
}

// TestScalerTransitions table-drives the watermark/hysteresis state
// machine on the pool's constants: sustained bursts scale up one
// worker per up-hold, sustained idleness scales down one per
// down-hold, and flapping input — samples that alternate bands faster
// than the hold — never moves the pool.
func TestScalerTransitions(t *testing.T) {
	cases := []struct {
		name     string
		steps    []step
		wantSize int
	}{
		{
			name: "burst scales up one step per hold period",
			steps: []step{
				{depth: 5}, {depth: 5, wantDelta: +1},
				{depth: 5}, {depth: 5, wantDelta: +1},
			},
			wantSize: 3,
		},
		{
			name: "max bound holds under continued pressure",
			steps: []step{
				{depth: 9}, {depth: 9, wantDelta: +1},
				{depth: 9}, {depth: 9, wantDelta: +1},
				{depth: 9}, {depth: 9}, {depth: 9}, {depth: 9},
			},
			wantSize: 3,
		},
		{
			name: "idle scales back down to min",
			steps: []step{
				{depth: 4}, {depth: 4, wantDelta: +1},
				{depth: 0}, {depth: 0}, {depth: 0}, {depth: 0, wantDelta: -1},
				{depth: 0}, {depth: 0}, {depth: 0}, {depth: 0}, // min bound: no further shrink
			},
			wantSize: 1,
		},
		{
			name: "flapping input never accumulates a decision",
			steps: []step{
				{depth: 5}, {depth: 0}, {depth: 5}, {depth: 0},
				{depth: 5}, {depth: 0}, {depth: 5}, {depth: 0},
			},
			wantSize: 1,
		},
		{
			name: "dead-band samples reset both streaks",
			steps: []step{
				{depth: 5}, {depth: 1}, {depth: 5}, {depth: 1},
				{depth: 5}, {depth: 1},
			},
			wantSize: 1,
		},
		{
			name: "down hysteresis survives a single idle dip",
			steps: []step{
				{depth: 5}, {depth: 5, wantDelta: +1},
				{depth: 0}, {depth: 5}, {depth: 0}, {depth: 5},
			},

			wantSize: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &scaler{min: 1, max: 3, size: 1}
			for i, st := range tc.steps {
				if delta := s.observe(st.depth); delta != st.wantDelta {
					t.Fatalf("step %d (depth %d): delta=%d, want %d", i, st.depth, delta, st.wantDelta)
				}
			}
			if s.size != tc.wantSize {
				t.Fatalf("final size %d, want %d", s.size, tc.wantSize)
			}
		})
	}
}

// TestAutoscalerScalesUpAndDown drives the real pool end to end: a
// burst of held jobs pushes the queue past the high watermark and the
// pool grows to max (scale-up events counted); releasing the jobs
// idles the queue and the pool shrinks back to min (scale-down events
// counted). The queue-depth high-water gauge witnesses the burst.
func TestAutoscalerScalesUpAndDown(t *testing.T) {
	sm := &obs.ServiceMetrics{}
	release := make(chan struct{})
	m := newTestManager(t, Options{
		QueueCap:   16,
		Metrics:    sm,
		MaxWorkers: 3,
	})
	m.testHookBeforeRun = func(*Job) { <-release }

	for i := 0; i < 8; i++ {
		spec := mustSpec(t, fmt.Sprintf(`{
  "graph": {"family": "gnp", "n": 40, "p": 0.3},
  "algorithm": "feedback",
  "trials": 1,
  "seed": %d
}`, i+1))
		if _, _, err := m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened (pool %d, ups %d, downs %d)",
					what, sm.PoolSize.Value(), sm.ScaleUps.Value(), sm.ScaleDowns.Value())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("scale-up to max", func() bool { return sm.PoolSize.Value() == 3 })
	if got := sm.ScaleUps.Value(); got < 2 {
		t.Fatalf("scale-up events %d, want ≥ 2", got)
	}
	if hw := sm.QueueHighWater.Value(); hw < 4 {
		t.Fatalf("queue high-water %d, want ≥ 4 (burst of 8 over ≤ 3 workers)", hw)
	}

	close(release)
	waitFor("scale-down to min", func() bool { return sm.PoolSize.Value() == 1 })
	if got := sm.ScaleDowns.Value(); got < 2 {
		t.Fatalf("scale-down events %d, want ≥ 2", got)
	}
	// Every submitted job still completes.
	for _, view := range m.Jobs() {
		job, _ := m.Job(view.ID)
		if v := waitDone(t, m, job); v.Status != StatusDone {
			t.Fatalf("job %s finished %s: %s", v.ID, v.Status, v.Error)
		}
	}
}

// TestAutoscalerResultsByteIdentical is the determinism end-to-end:
// the same scenario set run through the fixed pool and through an
// actively-scaling pool must produce byte-identical result JSON — the
// worker count is a performance knob, never a semantic one. The scaled
// run holds its first jobs until the pool has grown, so they execute
// on workers the control loop added. Run with -race in CI, where the
// scaling control loop races the workers.
func TestAutoscalerResultsByteIdentical(t *testing.T) {
	specs := make([]string, 5)
	for i := range specs {
		specs[i] = fmt.Sprintf(`{
  "graph": {"family": "gnp", "n": 70, "p": 0.3},
  "algorithm": "feedback",
  "trials": 2,
  "seed": %d
}`, i+100)
	}

	results := func(opts Options) map[string][]byte {
		m := newTestManager(t, opts)
		release := make(chan struct{})
		if opts.Metrics != nil {
			m.testHookBeforeRun = func(*Job) { <-release }
		}
		jobs := make([]*Job, 0, len(specs))
		for _, s := range specs {
			job, _, err := m.Submit(mustSpec(t, s))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job)
		}
		if opts.Metrics != nil {
			deadline := time.Now().Add(10 * time.Second)
			for opts.Metrics.ScaleUps.Value() < 2 {
				if time.Now().After(deadline) {
					t.Fatalf("pool never grew (size %d)", opts.Metrics.PoolSize.Value())
				}
				time.Sleep(time.Millisecond)
			}
		}
		close(release)
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

	fixed := results(Options{Workers: 2, QueueCap: 16})
	scaled := results(Options{QueueCap: 16, MaxWorkers: 4, Metrics: &obs.ServiceMetrics{}})

	if len(fixed) != len(scaled) {
		t.Fatalf("job counts differ: fixed %d, autoscaled %d", len(fixed), len(scaled))
	}
	for id, want := range fixed {
		got, ok := scaled[id]
		if !ok {
			t.Fatalf("autoscaled run missing job %s", id)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("job %s: autoscaled result differs from fixed-pool result", id)
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
