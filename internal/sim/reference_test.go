package sim

import (
	"fmt"
	"math"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

// referenceRun is a test-only oracle for the round loop: the paper's
// time step written node by node over []bool state, walking adjacency
// lists edge by edge and calling each node's own automaton — the shape
// of the simulator's original per-node engine, without its metrics or
// sharding. It shares only Run's option prelude (validation and wake
// resolution) and the fault layer's per-(node, round) draws, so the
// equivalence matrices can hold the packed round loop, on both
// adjacency backends and with or without a bulk kernel, to the same
// result bit for bit.
func referenceRun(g *graph.Graph, factory beep.Factory, master *rng.Source, opts Options) (*Result, error) {
	r, err := prepare(g, factory, master, opts)
	if err != nil {
		return nil, err
	}
	opts, plan, loss := r.opts, r.plan, r.loss
	n := g.N()
	wake := opts.WakeAt
	maxDeg := g.MaxDegree()
	build := func(v int) beep.Automaton {
		return factory(beep.NodeInfo{ID: v, N: n, MaxDegree: maxDeg})
	}
	autos := make([]beep.Automaton, n)
	streams := make([]*rng.Source, n)
	for v := 0; v < n; v++ {
		autos[v] = build(v)
		streams[v] = master.Stream(uint64(v))
	}
	res := &Result{
		InMIS:  make([]bool, n),
		States: make([]beep.State, n),
		Beeps:  make([]int, n),
	}
	for v := range res.States {
		res.States[v] = beep.StateActive
	}
	active := n

	beeped := make([]bool, n)
	heard := make([]bool, n)
	joined := make([]bool, n)
	neighborJoined := make([]bool, n)
	persist := make([]bool, n)
	usePersist := wake != nil || plan.outages()
	down := make([]bool, n)
	eligible := func(v, round int) bool {
		return res.States[v] == beep.StateActive && (wake == nil || round >= wake[v]) && !down[v]
	}
	// deliver sets dst[w] for every neighbour w of a vertex in emit;
	// it returns how many emitters each listener has.
	deliver := func(emit, dst []bool) []int {
		k := make([]int, n)
		for v, e := range emit {
			if !e {
				continue
			}
			for _, w := range g.Neighbors(v) {
				dst[w] = true
				k[w]++
			}
		}
		return k
	}
	var joinedDelta, leftDelta []int

	for round := 1; (active > 0 || plan.keepAlive(round)) && round <= r.maxRounds; round++ {
		res.Rounds = round
		for _, v := range opts.CrashAtRound[round] {
			if res.States[v] == beep.StateActive {
				res.States[v] = beep.StateCrashed
				active--
			}
		}
		leftDelta = leftDelta[:0]
		if plan.outages() {
			for _, v := range plan.resumeAt[round] {
				down[v] = false
			}
			for _, v := range plan.resetAt[round] {
				down[v] = false
				switch res.States[v] {
				case beep.StateInMIS:
					res.States[v] = beep.StateActive
					res.InMIS[v] = false
					active++
					leftDelta = append(leftDelta, v)
				case beep.StateDominated:
					res.States[v] = beep.StateActive
					active++
				}
				autos[v] = build(v)
			}
			for _, v := range plan.startAt[round] {
				down[v] = true
			}
		}
		// First exchange.
		emit := make([]bool, n)
		for v := 0; v < n; v++ {
			beeped[v] = eligible(v, round) && autos[v].Beep(streams[v])
			heard[v], joined[v], neighborJoined[v] = false, false, false
			if beeped[v] {
				res.Beeps[v]++
				res.TotalBeeps++
			}
			persist[v] = usePersist && res.States[v] == beep.StateInMIS && !down[v]
			if persist[v] {
				res.PersistentBeeps++
			}
			emit[v] = beeped[v] || persist[v]
		}
		emitters := deliver(emit, heard)
		for v := 0; v < n; v++ {
			if !eligible(v, round) {
				continue
			}
			if loss != nil && heard[v] && !loss.Hears(master, round, v, emitters[v]) {
				heard[v] = false
			}
			if plan != nil && plan.channel != nil {
				heard[v] = plan.channel.Hears(master, round, v, heard[v])
			}
		}
		// Second exchange: join announcements, re-announced by
		// persistent members.
		announce := make([]bool, n)
		for v := 0; v < n; v++ {
			joined[v] = beeped[v] && !heard[v]
			if joined[v] && g.Degree(v) > 0 {
				res.JoinAnnouncements++
			}
			announce[v] = joined[v] || persist[v]
		}
		deliver(announce, neighborJoined)
		for v := 0; v < n; v++ {
			if !eligible(v, round) {
				continue
			}
			switch {
			case joined[v]:
				res.States[v] = beep.StateInMIS
				res.InMIS[v] = true
				active--
			case neighborJoined[v]:
				res.States[v] = beep.StateDominated
				active--
			default:
				autos[v].Observe(beep.Outcome{Beeped: beeped[v], Heard: heard[v]})
			}
		}
		if opts.OnMISDelta != nil {
			joinedDelta = joinedDelta[:0]
			for v := 0; v < n; v++ {
				if joined[v] {
					joinedDelta = append(joinedDelta, v)
				}
			}
			if len(joinedDelta) > 0 || len(leftDelta) > 0 {
				opts.OnMISDelta(round, joinedDelta, leftDelta)
			}
		}
		if opts.OnRound != nil {
			probs := make([]float64, n)
			for v := range probs {
				if pr, ok := autos[v].(beep.ProbabilityReporter); ok && res.States[v] == beep.StateActive {
					probs[v] = pr.BeepProbability()
				} else if res.States[v] == beep.StateActive {
					probs[v] = math.NaN()
				}
			}
			opts.OnRound(Snapshot{Round: round, States: res.States, Beeped: beeped, Probabilities: probs, Active: active})
		}
	}
	res.Terminated = active == 0
	if !res.Terminated {
		return res, fmt.Errorf("%w: %d nodes still active after %d rounds", ErrTooManyRounds, active, r.maxRounds)
	}
	return res, nil
}
