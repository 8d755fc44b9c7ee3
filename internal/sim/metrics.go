package sim

import (
	"time"

	"beepmis/internal/obs"
)

// phaseClock accumulates one round's wall time into per-phase buckets
// and flushes them to the run's EngineMetrics. With metrics disabled
// (nil bundle) every method is a branch and a return — the round loop
// calls it unconditionally and pays nothing.
//
// The clock is a stack value inside the round loop: marking reads
// time.Now (no allocation), the accumulator is a fixed array, and
// flushing records into the bundle's lock-free histograms — so enabling
// metrics preserves the round loop's zero-steady-state-allocation guarantee
// (re-asserted by TestRoundLoopAllocations' metrics-enabled rows). No
// method touches an rng stream, so results are bit-identical with
// metrics on or off (asserted by TestMetricsDoNotPerturbResults).
type phaseClock struct {
	m    *obs.EngineMetrics
	last time.Time
	acc  [obs.PhaseCount]int64
}

// start opens a round: zero the accumulator and stamp the clock.
//
//misvet:noalloc
func (c *phaseClock) start() {
	if c.m == nil {
		return
	}
	for i := range c.acc {
		c.acc[i] = 0
	}
	c.last = time.Now() //misvet:allow(determinism) telemetry only: the phase clock measures, never steers; TestMetricsDoNotPerturbResults pins bit-identity
}

// mark attributes the wall time since the previous mark (or start) to
// phase p. A phase interrupted by another — channel noise landing in
// the middle of the exchange section, say — just marks twice; the
// accumulator sums.
//
//misvet:noalloc
func (c *phaseClock) mark(p obs.Phase) {
	if c.m == nil {
		return
	}
	now := time.Now() //misvet:allow(determinism) telemetry only: the phase clock measures, never steers; TestMetricsDoNotPerturbResults pins bit-identity
	c.acc[p] += now.Sub(c.last).Nanoseconds()
	c.last = now
}

// move reattributes ns of the current round from one phase to another —
// how the round loop splits the separately-timed beep tally out of
// the eligible-draw wall time without a second clock read in the hot
// path.
//
//misvet:noalloc
func (c *phaseClock) move(from, to obs.Phase, ns int64) {
	if c.m == nil {
		return
	}
	c.acc[from] -= ns
	c.acc[to] += ns
}

// flush records the round's accumulated per-phase durations and counts
// the round. Call it before the trace hooks run, so hook time is never
// attributed to a phase.
//
//misvet:noalloc
func (c *phaseClock) flush() {
	if c.m == nil {
		return
	}
	for p := obs.Phase(0); p < obs.PhaseCount; p++ {
		c.m.Phase[p].Observe(c.acc[p])
	}
	c.m.Rounds.Inc()
}
