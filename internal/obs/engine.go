package obs

// Phase names one slice of the simulator's round loop. The six phases
// partition a round's wall time (hooks excluded): what the per-phase
// histograms record per round sums — up to timer granularity — to the
// round's duration, which is what makes a phase breakdown trustworthy
// for "where did the time go" questions.
type Phase uint8

const (
	// PhaseFaults is fault application: crash processing, outage
	// recoveries and downs at the round's start, plus channel-noise
	// application after the first exchange.
	PhaseFaults Phase = iota
	// PhaseEligibleDraw is eligible-mask construction plus the kernel's
	// (or automata's) beep draws for every eligible node.
	PhaseEligibleDraw
	// PhaseBeepTally is the per-beeper accounting sweep (res.Beeps).
	// The round loop times it separately from the draws, attributing
	// the sharded path's tally at its critical path (slowest shard).
	PhaseBeepTally
	// PhasePropagate is the first exchange: delivering beeps to
	// neighbours.
	PhasePropagate
	// PhaseJoin is the join rule plus the second exchange (join
	// announcements).
	PhaseJoin
	// PhaseObserve is the observe sweep and the state transitions.
	PhaseObserve
	// PhaseCount is the number of phases.
	PhaseCount
)

// String returns the phase's snake_case label — the `phase` label value
// in the Prometheus exposition and the key in bench records' phase_ns.
func (p Phase) String() string {
	switch p {
	case PhaseFaults:
		return "faults"
	case PhaseEligibleDraw:
		return "eligible_draw"
	case PhaseBeepTally:
		return "beep_tally"
	case PhasePropagate:
		return "propagate"
	case PhaseJoin:
		return "join"
	case PhaseObserve:
		return "observe"
	default:
		return "unknown"
	}
}

// EngineMetrics is the simulator's instrumentation bundle, recorded by
// the round loops when a run's Options.Metrics is non-nil. Every field
// is one of this package's lock-free primitives, so a single bundle can
// be shared by concurrent runs (the misd deployment: one bundle
// aggregated across every job's trials) and recording costs the round
// loop no allocations and no synchronization beyond the atomic adds.
// The zero value is ready to use.
type EngineMetrics struct {
	// Rounds counts completed time steps across all runs.
	Rounds Counter
	// Runs counts completed simulation runs.
	Runs Counter
	// Phase holds one histogram of per-round wall nanoseconds per
	// round-loop phase, indexed by Phase. A phase's total ns is its
	// histogram's Sum.
	Phase [PhaseCount]Histogram
	// Frontier records the first-exchange emitter count per round — the
	// population the propagate phase scales with.
	Frontier Histogram
	// PropagateBits counts destination bits set by exchanges (delivered
	// volume): how much listening actually happened, the sparse
	// engine's written-volume analogue of an edge count.
	PropagateBits Counter
	// PushExchanges / PullExchanges count the direction decisions of
	// the planned exchanges; SerialExchanges counts those the plan kept
	// on one goroutine (a subset of either direction).
	PushExchanges   Counter
	PullExchanges   Counter
	SerialExchanges Counter
	// ScatterExchanges counts the pushes fanned out by emitter range:
	// the sparse engine's scatter-and-merge (see graph.ExchangePlan).
	ScatterExchanges Counter
	// ShardSpreadNs records, for each phase execution fanned out on the
	// shard pool, the spread (slowest minus fastest shard wall time) —
	// the imbalance signal: a spread rivalling the phase duration means
	// the partition is lopsided and the fan-out is buying nothing.
	ShardSpreadNs Histogram
}

// ObservePhase records one round's wall time for phase p. Nil-safe so
// call sites can stay unconditional.
func (m *EngineMetrics) ObservePhase(p Phase, ns int64) {
	if m == nil {
		return
	}
	m.Phase[p].Observe(ns)
}

// PhaseTotals returns cumulative wall nanoseconds per phase, keyed by
// the phase's String() — the map misbench stamps into bench records as
// phase_ns (JSON-marshalled maps sort keys, so records are
// deterministic).
func (m *EngineMetrics) PhaseTotals() map[string]int64 {
	if m == nil {
		return nil
	}
	totals := make(map[string]int64, PhaseCount)
	for p := Phase(0); p < PhaseCount; p++ {
		totals[p.String()] = int64(m.Phase[p].Sum())
	}
	return totals
}

// Register exposes the bundle under the beepmis_engine_* families.
func (m *EngineMetrics) Register(r *Registry) {
	r.RegisterCounter("beepmis_engine_rounds_total", "", "Completed simulation time steps across all runs.", &m.Rounds)
	r.RegisterCounter("beepmis_engine_runs_total", "", "Completed simulation runs.", &m.Runs)
	for p := Phase(0); p < PhaseCount; p++ {
		r.RegisterHistogram("beepmis_engine_phase_duration_ns", `phase="`+p.String()+`"`,
			"Per-round wall time of each round-loop phase in nanoseconds.", &m.Phase[p])
	}
	r.RegisterHistogram("beepmis_engine_frontier_size", "", "First-exchange emitter count per round.", &m.Frontier)
	r.RegisterCounter("beepmis_engine_propagate_bits_total", "", "Destination bits set by exchanges (delivered volume).", &m.PropagateBits)
	r.RegisterCounter("beepmis_engine_exchange_push_total", "", "Exchanges planned in the push direction.", &m.PushExchanges)
	r.RegisterCounter("beepmis_engine_exchange_pull_total", "", "Exchanges planned in the pull direction.", &m.PullExchanges)
	r.RegisterCounter("beepmis_engine_exchange_serial_total", "", "Exchanges the plan kept on one goroutine.", &m.SerialExchanges)
	r.RegisterCounter("beepmis_engine_exchange_scatter_total", "", "Pushes fanned out by emitter range and merged.", &m.ScatterExchanges)
	r.RegisterHistogram("beepmis_engine_shard_spread_ns", "", "Slowest-minus-fastest shard wall time per pooled phase execution.", &m.ShardSpreadNs)
}
