package main

import (
	"math"
	"sync"
	"syscall"
	"time"
)

// opRecord is one timed operation's outcome. lat runs from the first
// byte sent (or the Solve call) to the result in hand; output checks run
// after it is taken.
type opRecord struct {
	lat   time.Duration
	err   error
	class string
	// Service ops: the job snapshot's queue and run times and the result
	// size. Solve ops: the result's rounds.
	queueMs, runMs float64
	bytes          int
	rounds         int
}

// maxWallFor bounds a timed phase: it runs for the requested seconds,
// then on until enough ops have completed for a valid tail percentile,
// but never longer than this, so a run always ends within the limit a
// caller can rely on.
func maxWallFor(seconds int) time.Duration {
	return min(3*time.Duration(seconds)*time.Second, 120*time.Second)
}

// closedLoop runs op(i) for i = start, start+1, … < n on conns workers,
// each starting its next op only when its previous one has returned.
// New ops stop being claimed once the phase has run secs and completed
// at least minOps, or has run maxWall. Claims happen under one lock, so
// the ops run are always a contiguous prefix of the schedule. It returns
// the records of the ops run, in schedule order, and the phase's wall
// time up to the last completion.
func closedLoop(conns, start, n, minOps int, secs, maxWall time.Duration, op func(i int) opRecord) ([]opRecord, time.Duration) {
	var (
		mu      sync.Mutex
		next    = start
		stopped bool
	)
	t0 := time.Now()
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || next >= n {
			return 0, false
		}
		el := time.Since(t0)
		if el >= maxWall || (el >= secs && next-start >= minOps) {
			stopped = true
			return 0, false
		}
		next++
		return next - 1, true
	}
	// Each worker keeps its own records, so memory follows the ops run
	// rather than the schedule's length.
	type indexed struct {
		i   int
		rec opRecord
	}
	done := make([][]indexed, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				done[w] = append(done[w], indexed{i, op(i)})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	recs := make([]opRecord, next-start)
	for _, d := range done {
		for _, x := range d {
			recs[x.i-start] = x.rec
		}
	}
	return recs, wall
}

// latencies returns each record's latency in ms; a failed op counts as
// +Inf, since it misses any latency limit.
func latencies(recs []opRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		if r.err != nil {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = float64(r.lat.Nanoseconds()) / 1e6
	}
	return out
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
