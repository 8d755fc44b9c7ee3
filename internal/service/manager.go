// Package service is the long-lived layer over the scenario runner: a
// bounded job pool, a deduplicating result cache, and an HTTP API
// (http.go) that serves declarative workloads to remote clients.
//
// The cache is sound because the whole stack below it is deterministic:
// a scenario's content hash (engine/shards/workers stripped, defaults
// applied) fully determines the report bytes, so identical submissions
// — whether concurrent (they coalesce onto the running job) or repeated
// (they hit the finished entry) — are served one execution's result.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"beepmis/internal/obs"
	"beepmis/internal/scenario"
)

// JobStatus is a job's lifecycle position.
type JobStatus string

const (
	// StatusQueued: admitted, waiting for a pool worker.
	StatusQueued JobStatus = "queued"
	// StatusRunning: executing on a pool worker.
	StatusRunning JobStatus = "running"
	// StatusDone: finished; result bytes cached.
	StatusDone JobStatus = "done"
	// StatusFailed: execution failed; the error is cached (failures of
	// a validated spec are deterministic too — re-running would fail
	// identically).
	StatusFailed JobStatus = "failed"
)

// ErrBusy is returned by Submit when the queue is full; HTTP maps it to
// 429 Too Many Requests.
var ErrBusy = errors.New("service: queue full, try again later")

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("service: shutting down")

// Job is one cached scenario execution, keyed by the scenario hash.
// All mutable fields are guarded by the owning Manager's mutex.
type Job struct {
	// ID is the scenario content hash (hex SHA-256).
	ID string
	// Name is the spec's free-form label (informational).
	Name string

	status    JobStatus
	compiled  *scenario.Compiled
	result    []byte // canonical report bytes (StatusDone)
	err       string // failure message (StatusFailed)
	submitted time.Time
	started   time.Time
	finished  time.Time
	runs      int // executions (tests assert coalescing keeps this at 1)

	events []scenario.Event // bounded progress history for late subscribers
	subs   map[chan scenario.Event]struct{}
	done   chan struct{} // closed on done/failed
}

// maxEventHistory bounds the per-job progress history replayed to late
// subscribers; beyond it the oldest events are dropped (the terminal
// status is carried by the job itself, never by history).
const maxEventHistory = 1024

// JobView is an immutable snapshot of a job for JSON responses. The
// original fields are byte-compatible across versions; Runs/QueueMs/
// RunMs are additive (omitted at their zero values, so pre-existing
// responses serialise identically).
type JobView struct {
	ID        string    `json:"id"`
	Name      string    `json:"name,omitempty"`
	Status    JobStatus `json:"status"`
	Error     string    `json:"error,omitempty"`
	Units     int       `json:"units"`
	Trials    int       `json:"trials"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// Runs counts executions of this job (coalescing keeps it at 1; a
	// larger value means eviction and resubmission re-executed it).
	Runs int `json:"runs,omitempty"`
	// QueueMs is the submit→start wall time in milliseconds, present
	// once the job has started; RunMs is start→finish, present once it
	// has finished.
	QueueMs float64 `json:"queue_ms,omitempty"`
	RunMs   float64 `json:"run_ms,omitempty"`
}

// Options configures a Manager. Zero values get sensible defaults.
type Options struct {
	// Workers is the job pool size; default 1 (scenarios parallelise
	// internally via their trial pool, so one job per core-set is the
	// usual deployment).
	Workers int
	// QueueCap bounds the jobs waiting for a worker; a full queue
	// rejects submissions with ErrBusy. Default 64.
	QueueCap int
	// TrialWorkers overrides every spec's trial pool bound when > 0
	// (operators use it to stop one greedy spec from monopolising the
	// machine).
	TrialWorkers int
	// MaxJobs bounds how many jobs (and their cached results) are
	// retained; default 1024. Beyond it, the oldest *finished* jobs
	// are evicted — queued and running jobs are never evicted, so at
	// saturation the cache shrinks to the active set plus the newest
	// results. An evicted scenario simply re-executes on resubmission;
	// determinism guarantees the same bytes.
	MaxJobs int
	// MaxWorkers, when above Workers, lets the pool grow towards it on
	// sustained queue-depth pressure and shrink back to Workers when the
	// queue idles. 0 or ≤ Workers keeps the pool fixed at Workers.
	// Results are unaffected — worker count is a performance knob — but
	// wall-clock capacity follows load.
	MaxWorkers int
	// Metrics receives the manager's telemetry (queue depth, latency
	// histograms, cache and subscriber counters). Nil gets a private
	// bundle, so the instrumentation points never branch; pass one to
	// expose it on a registry.
	Metrics *obs.ServiceMetrics
	// EngineMetrics, when non-nil, is handed to every scenario run so
	// engine-level instrumentation (per-phase timing, frontier sizes)
	// aggregates across all jobs the manager executes.
	EngineMetrics *obs.EngineMetrics
}

// Manager owns the job queue and the result cache; its pool owns the
// workers that drain the queue.
type Manager struct {
	opts    Options
	metrics *obs.ServiceMetrics
	pool    *pool

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	closed   bool
	draining bool

	queue  chan *Job
	ctx    context.Context
	cancel context.CancelFunc

	// testHookBeforeRun, when non-nil, runs on the worker goroutine
	// before each execution — tests use it to hold a job in
	// StatusRunning while concurrent submissions coalesce onto it.
	testHookBeforeRun func(*Job)
}

// New starts a Manager's worker pool of Options.Workers workers,
// autoscaling up to Options.MaxWorkers.
func New(opts Options) *Manager {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 64
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 1024
	}
	if opts.Metrics == nil {
		opts.Metrics = &obs.ServiceMetrics{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:    opts,
		metrics: opts.Metrics,
		jobs:    make(map[string]*Job),
		queue:   make(chan *Job, opts.QueueCap),
		ctx:     ctx,
		cancel:  cancel,
	}
	m.pool = startPool(opts.Workers, opts.MaxWorkers, m.queue, m.execute, m.metrics)
	return m
}

// Submit admits a compiled scenario. The bool reports a cache hit:
// true means the spec's hash matched an existing job (finished or in
// flight) and no new execution was scheduled. A full queue returns
// ErrBusy and caches nothing.
func (m *Manager) Submit(compiled *scenario.Compiled) (*Job, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.draining {
		return nil, false, ErrClosed
	}
	if job, ok := m.jobs[compiled.Hash]; ok {
		if job.status == StatusDone || job.status == StatusFailed {
			m.metrics.CacheHits.Inc()
		} else {
			m.metrics.Coalesced.Inc()
		}
		return job, true, nil
	}
	job := &Job{
		ID:        compiled.Hash,
		Name:      compiled.Spec.Name,
		status:    StatusQueued,
		compiled:  compiled,
		submitted: time.Now(),
		subs:      make(map[chan scenario.Event]struct{}),
		done:      make(chan struct{}),
	}
	select {
	case m.queue <- job:
	default:
		m.metrics.Rejected.Inc()
		return nil, false, ErrBusy
	}
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.metrics.CacheMisses.Inc()
	m.metrics.QueueDepth.Add(1)
	// Submissions are serialised under m.mu, so the check-then-set on
	// the high-water gauge cannot lose an update.
	if depth := m.metrics.QueueDepth.Value(); depth > m.metrics.QueueHighWater.Value() {
		m.metrics.QueueHighWater.Set(depth)
	}
	m.evictLocked()
	return job, false, nil
}

// evictLocked drops the oldest finished jobs until the retention bound
// holds. Queued/running jobs are skipped — they hold queue slots and
// subscribers — so the map can transiently exceed MaxJobs by the
// active-set size, which QueueCap and the pool size already bound.
func (m *Manager) evictLocked() {
	if len(m.jobs) <= m.opts.MaxJobs {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		job := m.jobs[id]
		terminal := job.status == StatusDone || job.status == StatusFailed
		if len(m.jobs) > m.opts.MaxJobs && terminal {
			delete(m.jobs, id)
			m.metrics.Evictions.Inc()
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Job returns the job with the given id (the scenario hash).
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	return job, ok
}

// Jobs lists job snapshots in submission order.
func (m *Manager) Jobs() []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	views := make([]JobView, 0, len(m.order))
	for _, id := range m.order {
		views = append(views, m.viewLocked(m.jobs[id]))
	}
	return views
}

// View returns a snapshot of the job.
func (m *Manager) View(job *Job) JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked(job)
}

func (m *Manager) viewLocked(job *Job) JobView {
	trials := job.compiled.Spec.Trials * len(job.compiled.Units)
	view := JobView{
		ID:        job.ID,
		Name:      job.Name,
		Status:    job.status,
		Error:     job.err,
		Units:     len(job.compiled.Units),
		Trials:    trials,
		Submitted: job.submitted,
		Started:   job.started,
		Finished:  job.finished,
		Runs:      job.runs,
	}
	if !job.started.IsZero() {
		view.QueueMs = float64(job.started.Sub(job.submitted).Nanoseconds()) / 1e6
		if !job.finished.IsZero() {
			view.RunMs = float64(job.finished.Sub(job.started).Nanoseconds()) / 1e6
		}
	}
	return view
}

// Result returns the cached report bytes, or false until StatusDone.
func (m *Manager) Result(job *Job) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if job.status != StatusDone {
		return nil, false
	}
	return job.result, true
}

// Done returns a channel closed when the job reaches a terminal status.
func (m *Manager) Done(job *Job) <-chan struct{} { return job.done }

// Subscribe attaches a progress listener: it returns the event history
// so far (replayed in order) and a channel carrying subsequent events,
// which is closed when the job finishes. A subscriber that falls more
// than its buffer behind loses intermediate events (terminal state is
// never lost — it travels via Done/status, not via events). Cancel with
// Unsubscribe.
func (m *Manager) Subscribe(job *Job) ([]scenario.Event, <-chan scenario.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	history := append([]scenario.Event(nil), job.events...)
	ch := make(chan scenario.Event, 256)
	if job.status == StatusDone || job.status == StatusFailed {
		close(ch)
		return history, ch
	}
	job.subs[ch] = struct{}{}
	m.metrics.Subscribers.Add(1)
	return history, ch
}

// Unsubscribe detaches a listener registered with Subscribe. Calling it
// after the job finished (finish already closed and detached every
// subscriber) is a harmless no-op — the SSE handler always defers it.
func (m *Manager) Unsubscribe(job *Job, ch <-chan scenario.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for sub := range job.subs {
		if (<-chan scenario.Event)(sub) == ch {
			delete(job.subs, sub)
			close(sub)
			m.metrics.Subscribers.Add(-1)
			return
		}
	}
}

// Ready reports whether the manager accepts submissions — false the
// moment Drain or Close begins. The /v1/readyz endpoint serves it, so
// a load balancer stops routing to a draining instance while liveness
// (/v1/healthz) stays green until the process actually exits.
func (m *Manager) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closed && !m.draining
}

// Drain marks the manager not-ready without yet touching the pool:
// readiness flips immediately (new submissions get ErrClosed, the
// readyz probe 503s) while queued and running jobs keep executing and
// every result stays servable. It is the first step of a graceful
// shutdown — call Close afterwards to actually stop the workers.
// Idempotent.
func (m *Manager) Drain() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
}

// Metrics returns the manager's telemetry bundle (the one passed in
// Options, or the private default).
func (m *Manager) Metrics() *obs.ServiceMetrics { return m.metrics }

// Close drains the pool: no new submissions are admitted, queued jobs
// that have not started are failed with ErrClosed, and the context's
// deadline bounds the wait for running jobs (whose trial loops observe
// the cancellation between trials).
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()

	// Fail everything still waiting in the queue.
	for job := range m.queue {
		m.finish(job, nil, ErrClosed)
	}

	done := make(chan struct{})
	go func() {
		m.pool.wait()
		close(done)
	}()
	select {
	case <-done:
		m.cancel()
		return nil
	case <-ctx.Done():
		// Deadline hit: cancel running scenarios and wait for the
		// workers to observe it.
		m.cancel()
		<-done
		return fmt.Errorf("service: shutdown deadline hit, running jobs cancelled: %w", ctx.Err())
	}
}

// execute is the function the pool's workers hand dequeued jobs to. Once Close has begun, dequeued jobs fail fast instead of
// starting — Close's drain loop consumes the same channel, and
// whichever side wins the race must apply the same policy. (Draining
// alone does not fail jobs: Drain stops admissions, not execution.)
func (m *Manager) execute(job *Job) {
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed || m.ctx.Err() != nil {
		m.finish(job, nil, ErrClosed)
		return
	}
	m.run(job)
}

// run executes one job and caches its outcome.
func (m *Manager) run(job *Job) {
	m.mu.Lock()
	job.status = StatusRunning
	job.started = time.Now()
	job.runs++
	m.metrics.QueueDepth.Add(-1)
	m.metrics.QueueLatencyNs.Observe(job.started.Sub(job.submitted).Nanoseconds())
	hook := m.testHookBeforeRun
	m.mu.Unlock()
	if hook != nil {
		hook(job)
	}

	opts := scenario.RunOptions{
		Workers:  m.opts.TrialWorkers,
		Progress: func(e scenario.Event) { m.publish(job, e) },
		Metrics:  m.opts.EngineMetrics,
	}
	report, err := scenario.Run(m.ctx, job.compiled, opts)
	if err != nil {
		m.finish(job, nil, err)
		return
	}
	bytes, err := report.JSON()
	if err != nil {
		m.finish(job, nil, err)
		return
	}
	m.finish(job, bytes, nil)
}

// publish appends an event to the job's history and fans it out.
func (m *Manager) publish(job *Job, e scenario.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job.events = append(job.events, e)
	if len(job.events) > maxEventHistory {
		job.events = job.events[len(job.events)-maxEventHistory:]
	}
	for sub := range job.subs {
		select {
		case sub <- e:
		default: // slow subscriber: drop rather than stall the run
			m.metrics.EventsDropped.Inc()
		}
	}
}

// finish moves the job to its terminal status and releases waiters.
func (m *Manager) finish(job *Job, result []byte, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if job.status == StatusDone || job.status == StatusFailed {
		return
	}
	if job.status == StatusQueued {
		// Failed without ever starting (shutdown drain): release the
		// queue-depth slot run() would have.
		m.metrics.QueueDepth.Add(-1)
	}
	if err != nil {
		job.status = StatusFailed
		job.err = err.Error()
		m.metrics.JobsFailed.Inc()
	} else {
		job.status = StatusDone
		job.result = result
		m.metrics.JobsDone.Inc()
	}
	job.finished = time.Now()
	if !job.started.IsZero() {
		m.metrics.RunLatencyNs.Observe(job.finished.Sub(job.started).Nanoseconds())
	}
	m.metrics.Subscribers.Add(-int64(len(job.subs)))
	for sub := range job.subs {
		close(sub)
	}
	job.subs = make(map[chan scenario.Event]struct{})
	close(job.done)
}

// Stats summarises the manager for the health endpoint.
type Stats struct {
	Jobs    int            `json:"jobs"`
	Queued  int            `json:"queued"`
	Running int            `json:"running"`
	Done    int            `json:"done"`
	Failed  int            `json:"failed"`
	Workers int            `json:"workers"`
	Queue   map[string]int `json:"queue"`
}

// StatsNow snapshots the manager.
func (m *Manager) StatsNow() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Jobs:    len(m.jobs),
		Workers: int(m.metrics.PoolSize.Value()),
		Queue:   map[string]int{"cap": m.opts.QueueCap, "len": len(m.queue)},
	}
	for _, job := range m.jobs {
		switch job.status {
		case StatusQueued:
			s.Queued++
		case StatusRunning:
			s.Running++
		case StatusDone:
			s.Done++
		case StatusFailed:
			s.Failed++
		}
	}
	return s
}
