package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"beepmis/internal/beep"
	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/obs"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
	"beepmis/internal/stats"
)

// Stream slots of the per-(unit, trial) rng key. Graph generation, the
// simulation run, and wake-time draws are independent streams so adding
// or removing one never perturbs the others.
const (
	slotGraph = 1
	slotRun   = 2
	slotWake  = 3
)

// trialKey derives the rng stream id of one (unit, trial, slot)
// triple. Units and trials are bounded (MaxUnits, MaxTrials) far below
// the field widths, so keys never collide.
func trialKey(unit, trial, slot int) uint64 {
	return uint64(unit)<<40 | uint64(trial)<<8 | uint64(slot)
}

// EventType enumerates progress event kinds.
type EventType string

const (
	// EventUnitStart opens a unit: N/P/Algorithm identify it.
	EventUnitStart EventType = "unit_start"
	// EventRound reports one completed simulation round. Emitted only
	// for single-trial units — a sweep of parallel trials would flood
	// the stream with interleaved rounds no client could order.
	EventRound EventType = "round"
	// EventTrial reports one completed trial.
	EventTrial EventType = "trial"
	// EventUnitDone closes a unit.
	EventUnitDone EventType = "unit_done"
)

// Event is one progress notification of a running scenario. Events are
// delivered from the goroutine running the trial; the callback must be
// safe for concurrent use when the spec runs parallel trials.
type Event struct {
	Type      EventType `json:"type"`
	Unit      int       `json:"unit"`
	Units     int       `json:"units"`
	Algorithm string    `json:"algorithm,omitempty"`
	N         int       `json:"n,omitempty"`
	P         float64   `json:"p,omitempty"`
	// Trial fields (EventTrial; also EventRound's trial).
	Trial  int `json:"trial,omitempty"`
	Trials int `json:"trials,omitempty"`
	// Round fields (EventRound).
	Round  int `json:"round,omitempty"`
	Active int `json:"active,omitempty"`
	// Completed-trial summary (EventTrial).
	Rounds  int `json:"rounds,omitempty"`
	SetSize int `json:"set_size,omitempty"`
}

// RunOptions tunes execution without touching semantics.
type RunOptions struct {
	// Workers overrides the spec's trial pool bound when > 0.
	Workers int
	// Progress, when non-nil, receives events as the run advances.
	Progress func(Event)
	// Metrics, when non-nil, receives engine instrumentation from every
	// trial (see sim.Options.Metrics). The bundle is lock-free, so one
	// bundle safely aggregates across the parallel trial pool; recording
	// never perturbs results, so the report bytes — and therefore the
	// service's cache soundness — are unchanged.
	Metrics *obs.EngineMetrics
	// OnTrial, when non-nil, is called once per finished trial, from the
	// goroutine that ran it, before the trial's graph storage is reused:
	// it receives the unit and trial index, the trial's graph and
	// result, and the independence breaches fault.Verifier counted. It
	// must be safe for concurrent use and must neither modify nor retain
	// g or res. It is how the experiments measure per-trial quantities
	// the report does not carry; it runs after the trial's report slot
	// is filled, so it cannot change a report byte.
	OnTrial func(unit, trial int, g *graph.Graph, res *sim.Result, violations int)
}

// Agg is a deterministic aggregate over a unit's trials. Values are
// computed from trial results in index order, so they are identical for
// any worker count.
type Agg struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

func aggregate(vals []float64) Agg {
	if len(vals) == 0 {
		return Agg{}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return Agg{Mean: stats.Mean(vals), Std: stats.StdDev(vals), Min: lo, Max: hi}
}

// UnitReport is one unit's results.
type UnitReport struct {
	Unit      int     `json:"unit"`
	Algorithm string  `json:"algorithm"`
	N         int     `json:"n"`
	P         float64 `json:"p,omitempty"`
	// Nodes/Edges/MaxDegree describe the instances: for pinned-seed (or
	// deterministic) families every trial shares one instance; for
	// per-trial random instances Edges and MaxDegree are trial means.
	Nodes     int     `json:"nodes"`
	Edges     float64 `json:"edges"`
	MaxDegree float64 `json:"max_degree"`
	Trials    int     `json:"trials"`
	Rounds    Agg     `json:"rounds"`
	Beeps     Agg     `json:"beeps_per_node"`
	SetSize   Agg     `json:"set_size"`
	// RoundsTail is the p50/p95/p99 of the per-trial round counts — the
	// distribution tail the robustness experiments report, where the
	// mean hides straggler trials.
	RoundsTail stats.Tail `json:"rounds_percentiles"`
	// StableRounds aggregates rounds-to-stable-MIS per trial: the last
	// round the membership changed, as observed by fault.Verifier. Under
	// faults this is the honest convergence metric — a set can look
	// finished, be perturbed by a reset, and be repaired later; the
	// plain Rounds number cannot tell.
	StableRounds Agg `json:"stable_rounds"`
	// TrialRounds is the per-trial round count, in trial order — the
	// raw series clients fit distributions to.
	TrialRounds []int `json:"trial_rounds"`
	// Verified reports that every trial's output passed graph.VerifyMIS.
	Verified bool `json:"verified"`
	// IndependentEveryRound reports that fault.Verifier observed no
	// independence breach in any round of any trial — stronger than
	// Verified, which only inspects the terminal state.
	IndependentEveryRound bool `json:"independent_every_round"`
	// IndependenceViolations totals the breaches across all trials.
	IndependenceViolations int `json:"independence_violations"`
	// MaximalAtTermination reports that every trial ended with every
	// non-member dominated, exempting permanently crashed nodes (which
	// graph.VerifyMIS cannot do — a crashed node needs no coverage).
	MaximalAtTermination bool `json:"maximal_at_termination"`
}

// Report is a completed scenario run. Its JSON serialisation is a pure
// function of the canonical spec: equal hashes produce byte-identical
// bytes (enforced by tests), which is what makes the service's result
// cache sound. That is also why the spec's free-form Name is absent
// here — it is excluded from the hash, so embedding it would let two
// same-hash submissions produce different bytes; names live on the
// service's job metadata instead.
type Report struct {
	Hash  string          `json:"hash"`
	Spec  json.RawMessage `json:"spec"`
	Units []UnitReport    `json:"units"`
}

// JSON returns the report's canonical byte serialisation (indented,
// trailing newline) — the bytes misrun prints and misd caches.
func (r *Report) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, fmt.Errorf("scenario: encode report: %w", err)
	}
	return buf.Bytes(), nil
}

// WriteJSON writes the canonical report bytes to w.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := r.JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Run executes a compiled scenario: units sequentially, each unit's
// trials on the bounded pool of ForTrials. ctx is checked between
// trials (a running simulation is not interrupted mid-round); on
// cancellation Run returns ctx.Err().
func Run(ctx context.Context, c *Compiled, opts RunOptions) (*Report, error) {
	spec := c.Spec
	workers := spec.Workers
	if opts.Workers > 0 {
		workers = opts.Workers
	}
	// emit stays nil without a Progress callback so the runner (and the
	// simulator's OnRound hook machinery) skips event work entirely.
	var emit func(Event)
	if progress := opts.Progress; progress != nil {
		emit = func(e Event) {
			e.Units = len(c.Units)
			progress(e)
		}
	}

	master := rng.New(spec.Seed)
	report := &Report{
		Hash:  c.Hash,
		Spec:  json.RawMessage(c.Canonical),
		Units: make([]UnitReport, 0, len(c.Units)),
	}

	for _, u := range c.Units {
		if emit != nil {
			emit(Event{Type: EventUnitStart, Unit: u.Index, Algorithm: u.Algorithm, N: u.N, P: u.P})
		}
		ur, err := runUnit(ctx, u, c.engine, master, poolSize(workers), emit, opts)
		if err != nil {
			return nil, err
		}
		report.Units = append(report.Units, *ur)
		if emit != nil {
			emit(Event{Type: EventUnitDone, Unit: u.Index, Algorithm: u.Algorithm, N: u.N, P: u.P})
		}
	}
	return report, nil
}

// trialResult is one trial's slot; aggregation reads the slots in
// trial order after the pool drains.
type trialResult struct {
	rounds     int
	stable     int
	violations int
	maximal    bool
	beeps      float64
	setSize    int
	edges      int
	maxDeg     int
	verified   bool
}

func runUnit(ctx context.Context, u *Unit, engine sim.Engine, master *rng.Source, poolWorkers int, emit func(Event), runOpts RunOptions) (*UnitReport, error) {
	spec := u.spec
	trials := spec.Trials
	slots := make([]trialResult, trials)

	// Engine options shared by every trial.
	simOpts := sim.Options{
		MaxRounds: spec.MaxRounds,
		Engine:    engine,
		Bulk:      u.bulk,
		Shards:    spec.Shards,
		BeepLoss:  spec.BeepLoss,
		Faults:    spec.Faults,
		Metrics:   runOpts.Metrics,
	}
	// A parallel trial pool claims the cores, so an unset shard bound
	// collapses to serial propagation — but only when there really are
	// multiple trials; a single-trial unit should keep the columnar
	// engine's sharded fan-out.
	if simOpts.Shards == 0 && poolWorkers > 1 && trials > 1 {
		simOpts.Shards = 1
	}
	if len(spec.CrashAtRound) > 0 {
		simOpts.CrashAtRound = spec.CrashAtRound
	}

	// Pinned-seed graphs are generated once and shared read-only by
	// every trial: Graph is immutable and its lazy Matrix() cache is
	// sync.Once-guarded, so concurrent trials are safe.
	var pinned *graph.Graph
	if !u.info.random || u.graph.Seed != 0 {
		var src *rng.Source
		if u.info.random {
			src = rng.New(u.graph.Seed)
		}
		g, err := u.info.build(u.graph, u.N, u.P, src)
		if err != nil {
			return nil, fmt.Errorf("scenario: build graph: %w", err)
		}
		pinned = g
	}

	// Per-trial instances of a family with buildInto are built into one
	// graph.Scratch per concurrent trial, so a unit's trials reuse one
	// set of arrays per trial worker instead of churning large objects
	// through the heap. The channel holds every scratch (at most one per
	// pool worker), so a trial never waits for one; they die with the
	// unit.
	var scratches chan *graph.Scratch
	if pinned == nil && u.info.buildInto != nil {
		k := min(poolWorkers, trials)
		scratches = make(chan *graph.Scratch, k)
		for range k {
			scratches <- new(graph.Scratch)
		}
	}

	err := ForTrials(poolWorkers, trials, func(trial int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		g := pinned
		if g == nil {
			graphSrc := master.Stream(trialKey(u.Index, trial, slotGraph))
			if scratches != nil {
				// The graph lives in s until s's next build, so s goes
				// back only once this trial is done with g.
				s := <-scratches
				defer func() { scratches <- s }()
				g = u.info.buildInto(s, u.N, u.P, graphSrc)
			} else {
				var err error
				g, err = u.info.build(u.graph, u.N, u.P, graphSrc)
				if err != nil {
					return fmt.Errorf("scenario: build graph (trial %d): %w", trial, err)
				}
			}
		}
		opts := simOpts
		if spec.WakeWindow > 0 {
			wakeSrc := master.Stream(trialKey(u.Index, trial, slotWake))
			wake := make([]int, g.N())
			for v := range wake {
				wake[v] = 1 + wakeSrc.Intn(spec.WakeWindow)
			}
			opts.WakeAt = wake
		}
		if trials == 1 && emit != nil {
			opts.OnRound = func(s sim.Snapshot) {
				emit(Event{
					Type: EventRound, Unit: u.Index, Trial: trial, Trials: trials,
					Round: s.Round, Active: s.Active,
				})
			}
		}
		// Every trial runs under an incremental safety checker: O(Σ deg
		// of the joining frontier) per round, so noisy runs are judged
		// by what held throughout, not just by their terminal state.
		verifier := fault.NewVerifier(g)
		opts.OnMISDelta = verifier.ObserveRound
		res, err := sim.Run(g, u.factory, master.Stream(trialKey(u.Index, trial, slotRun)), opts)
		if err != nil {
			return fmt.Errorf("scenario: unit %d (algorithm %s, n=%d) trial %d: %w", u.Index, u.Algorithm, u.N, trial, err)
		}
		setSize := 0
		for _, in := range res.InMIS {
			if in {
				setSize++
			}
		}
		// Maximality exempts permanently crashed nodes — they neither
		// join nor need dominating, which plain VerifyMIS cannot know.
		var exempt graph.Bitset
		if len(spec.CrashAtRound) > 0 {
			exempt = graph.NewBitset(g.N())
			for v, st := range res.States {
				if st == beep.StateCrashed {
					exempt.Set(v)
				}
			}
		}
		slots[trial] = trialResult{
			rounds:     res.Rounds,
			stable:     verifier.LastChangeRound(),
			violations: verifier.ViolationCount(),
			maximal:    len(verifier.Uncovered(exempt)) == 0,
			beeps:      res.MeanBeepsPerNode(),
			setSize:    setSize,
			edges:      g.M(),
			maxDeg:     g.MaxDegree(),
			verified:   graph.VerifyMIS(g, res.InMIS) == nil,
		}
		if runOpts.OnTrial != nil {
			runOpts.OnTrial(u.Index, trial, g, res, slots[trial].violations)
		}
		if emit != nil {
			emit(Event{
				Type: EventTrial, Unit: u.Index, Trial: trial, Trials: trials,
				Rounds: res.Rounds, SetSize: setSize,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ur := &UnitReport{
		Unit:                  u.Index,
		Algorithm:             u.Algorithm,
		N:                     u.N,
		P:                     u.P,
		Nodes:                 u.Nodes,
		Trials:                trials,
		TrialRounds:           make([]int, trials),
		Verified:              true,
		IndependentEveryRound: true,
		MaximalAtTermination:  true,
	}
	rounds := make([]float64, trials)
	stable := make([]float64, trials)
	beeps := make([]float64, trials)
	sizes := make([]float64, trials)
	var edges, maxDeg float64
	for i, s := range slots {
		ur.TrialRounds[i] = s.rounds
		rounds[i] = float64(s.rounds)
		stable[i] = float64(s.stable)
		beeps[i] = s.beeps
		sizes[i] = float64(s.setSize)
		edges += float64(s.edges)
		maxDeg += float64(s.maxDeg)
		ur.Verified = ur.Verified && s.verified
		ur.IndependenceViolations += s.violations
		ur.IndependentEveryRound = ur.IndependentEveryRound && s.violations == 0
		ur.MaximalAtTermination = ur.MaximalAtTermination && s.maximal
	}
	ur.Edges = edges / float64(trials)
	ur.MaxDegree = maxDeg / float64(trials)
	ur.Rounds = aggregate(rounds)
	ur.RoundsTail, _ = stats.Tails(rounds) // trials ≥ 1, never empty
	ur.StableRounds = aggregate(stable)
	ur.Beeps = aggregate(beeps)
	ur.SetSize = aggregate(sizes)
	return ur, nil
}
