package service

import (
	"sync"
	"time"

	"beepmis/internal/obs"
)

// The autoscaler's tuning. Watermarks are queue depths (jobs admitted
// but not yet dequeued): the pool grows while the depth holds at or
// above scaleHigh and shrinks while it holds at or below scaleLow, so
// only an empty queue scales down. The holds are the consecutive
// samples a watermark must hold before the pool acts — the hysteresis
// that keeps flapping input from oscillating the pool.
const (
	scaleHigh     = 2
	scaleLow      = 0
	scaleUpHold   = 2
	scaleDownHold = 4
	scaleInterval = 25 * time.Millisecond
)

// scaler is the autoscaler's decision core: a pure state machine from
// queue-depth samples to worker-count deltas, separated from the
// goroutine mechanics so the watermark/hysteresis transitions are
// table-testable without clocks or channels.
type scaler struct {
	min, max, size int
	// upStreak / downStreak count consecutive samples in the high/low
	// band; a sample in the dead band between the watermarks resets
	// both, so flapping input never accumulates towards a decision.
	upStreak, downStreak int
}

// observe feeds one queue-depth sample and returns the worker-count
// delta to apply (+1, -1 or 0). The scaler applies the delta to its
// own size tracking; the caller applies it to the real pool.
func (s *scaler) observe(depth int) int {
	switch {
	case depth >= scaleHigh:
		s.downStreak = 0
		s.upStreak++
		if s.upStreak >= scaleUpHold && s.size < s.max {
			s.upStreak = 0
			s.size++
			return +1
		}
	case depth <= scaleLow:
		s.upStreak = 0
		s.downStreak++
		if s.downStreak >= scaleDownHold && s.size > s.min {
			s.downStreak = 0
			s.size--
			return -1
		}
	default:
		s.upStreak, s.downStreak = 0, 0
	}
	return 0
}

// pool is the Manager's job pool: Options.Workers workers that drain
// the queue, growing towards Options.MaxWorkers on sustained
// queue-depth pressure and shrinking back when the queue goes idle. A
// pool whose maximum is not above its minimum is fixed and starts no
// control goroutine. Every decision is instrumented — the
// pool-size gauge moves and a scale event counter increments — so a
// /metrics scrape tells the full scaling story.
//
// Scaling is a performance decision only: job results are a pure
// function of the scenario spec, so any worker count produces
// byte-identical outputs (TestAutoscalerResultsByteIdentical holds the
// pool to that). The pool never decides job outcomes either: run owns
// the shutdown-race policy.
type pool struct {
	queue <-chan *Job
	run   func(*Job)
	// metrics.PoolSize holds the commanded worker count.
	metrics *obs.ServiceMetrics

	// quit carries one token per scale-down decision; the first worker
	// to see one (between jobs) exits. Buffered to the maximum so the
	// control loop never blocks on a busy pool.
	quit    chan struct{}
	stopCtl chan struct{}
	wg      sync.WaitGroup // workers
	ctlWg   sync.WaitGroup // control loop
}

// startPool launches workers workers receiving from queue and calling
// run until it closes, and the control loop when maxWorkers > workers.
func startPool(workers, maxWorkers int, queue <-chan *Job, run func(*Job), metrics *obs.ServiceMetrics) *pool {
	p := &pool{queue: queue, run: run, metrics: metrics}
	metrics.PoolSize.Set(int64(workers))
	if maxWorkers > workers {
		p.quit = make(chan struct{}, maxWorkers)
		p.stopCtl = make(chan struct{})
		p.ctlWg.Add(1)
		go p.control(&scaler{min: workers, max: maxWorkers, size: workers})
	}
	for i := 0; i < workers; i++ {
		p.spawn()
	}
	return p
}

// spawn adds one worker. Workers exit when the queue closes or when
// they pick up a scale-down token between jobs — never mid-job. A
// fixed pool's quit is nil, so its workers only wait on the queue.
func (p *pool) spawn() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			select {
			case <-p.quit:
				return
			case job, ok := <-p.queue:
				if !ok {
					return
				}
				p.run(job)
			}
		}
	}()
}

// control samples the queue depth every scaleInterval and applies the
// scaler's decisions until wait stops it.
func (p *pool) control(st *scaler) {
	defer p.ctlWg.Done()
	ticker := time.NewTicker(scaleInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stopCtl:
			return
		case <-ticker.C:
			switch st.observe(len(p.queue)) {
			case +1:
				p.spawn()
				p.metrics.ScaleUps.Inc()
			case -1:
				// Buffered to the maximum, and tokens only outnumber
				// workers transiently, so this never blocks; the default
				// arm is pure defence.
				select {
				case p.quit <- struct{}{}:
				default:
				}
				p.metrics.ScaleDowns.Inc()
			default:
				continue
			}
			p.metrics.PoolSize.Set(int64(st.size))
		}
	}
}

// wait stops the control loop and blocks until every worker has
// exited. The queue must be closed first, or wait blocks forever.
func (p *pool) wait() {
	if p.stopCtl != nil {
		close(p.stopCtl)
		p.ctlWg.Wait()
	}
	p.wg.Wait()
}
