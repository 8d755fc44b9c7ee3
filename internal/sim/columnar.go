package sim

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"time"

	"beepmis/internal/beep"
	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/obs"
	"beepmis/internal/rng"
)

// drawShardMinNodes is the active-population floor below which the
// eligible-draw and observe sweeps stay on one goroutine. A sharded
// sweep costs one channel round-trip per worker (~1µs each); per-node
// draws cost tens of nanoseconds, so fan-out only pays once thousands
// of nodes are drawing. The threshold reads the engine's running
// active count — as a run converges below it, the loop drops back to
// serial sweeps with bit-identical results (sharding never changes
// output, only wall clock).
const drawShardMinNodes = 1 << 12

// columnarLoop holds the per-run state the round phases share, so the
// phase bodies can be method values created once at setup and fed to
// the persistent shard pool with zero allocations per round. The three
// shardable phases — eligible draws + beep tally, the two exchanges,
// and the observe sweep — each write only per-node state (packed
// kernel arrays, per-node rng streams, destination mask words) of the
// nodes in their word range, or, in the sparse push's scatter phase, a
// full-width buffer of their own that the merge phase then folds in by
// word range, so any partition of the word space is bit-identical to
// one serial sweep.
type columnarLoop struct {
	prop    bulkPropagator
	bulk    beep.BulkAutomaton
	ranger  beep.BulkRanger // nil when the kernel cannot range-shard
	streams []*rng.Source
	pool    *shardPool // nil when the effective shard count is 1
	shards  int
	res     *Result

	// Stable per-round masks, bound once at setup.
	beeped graph.Bitset
	heard  graph.Bitset

	// Per-phase parameters, written before each pool.run. The pool's
	// work-channel send/receive orders these writes before the workers'
	// reads.
	eligible    graph.Bitset // draw mask and exchange-targets mask
	observeMask graph.Bitset
	xplan       graph.ExchangePlan
	xdst        graph.Bitset
	xemit       graph.Bitset

	shardBeeps []int // per-shard beep tallies, summed after the draw phase

	// scatter[k-1] is shard k's private full-width buffer for Scatter
	// plans (the sparse engine's fanned push); shard 0 scatters into
	// the exchange's dst itself. Allocated with the pool; the columnar
	// engine's plans never scatter and leave them unused.
	scatter []graph.Bitset

	// Method values for the pool, created once (a method value
	// evaluated inline would allocate its closure on every round).
	beepFn     func(shard, lo, hi int)
	observeFn  func(shard, lo, hi int)
	exchangeFn func(shard, lo, hi int)
	mergeFn    func(shard, lo, hi int)

	// Instrumentation (all nil/zero when metrics are off). timedFn wraps
	// inner with per-shard wall timing into shardNs so runPool can record
	// the shard spread; tallyNs and lastTallyNs let drawBeeps report how
	// much of the draw phase the beep tally took (attributed at the
	// critical path — the slowest shard — under fan-out). All buffers are
	// preallocated at setup; recording allocates nothing.
	metrics     *obs.EngineMetrics
	timedFn     func(shard, lo, hi int)
	inner       func(shard, lo, hi int)
	shardNs     []int64
	tallyNs     []int64
	lastTallyNs int64
}

func newColumnarLoop(prop bulkPropagator, bulk beep.BulkAutomaton, streams []*rng.Source, res *Result, beeped, heard graph.Bitset, shards int, metrics *obs.EngineMetrics) *columnarLoop {
	l := &columnarLoop{
		prop:    prop,
		bulk:    bulk,
		streams: streams,
		res:     res,
		beeped:  beeped,
		heard:   heard,
		shards:  shards,
		metrics: metrics,
	}
	l.ranger, _ = bulk.(beep.BulkRanger)
	l.pool = newShardPool(len(beeped), shards)
	if l.pool != nil {
		l.shardBeeps = make([]int, l.pool.shards())
		l.scatter = make([]graph.Bitset, l.pool.shards()-1)
		for k := range l.scatter {
			l.scatter[k] = make(graph.Bitset, len(beeped))
		}
		l.beepFn = l.beepShard
		l.observeFn = l.observeShard
		l.exchangeFn = l.exchangeShard
		l.mergeFn = l.mergeShard
		if metrics != nil {
			l.timedFn = l.timedShard
			l.shardNs = make([]int64, l.pool.shards())
			l.tallyNs = make([]int64, l.pool.shards())
		}
	}
	return l
}

// timedShard runs the current inner phase body for one shard and stamps
// its wall time — the raw material for the shard-spread histogram.
//
//misvet:noalloc
func (l *columnarLoop) timedShard(shard, lo, hi int) {
	start := time.Now() //misvet:allow(determinism) telemetry only: measures shard wall time, never steers results; TestMetricsDoNotPerturbResults pins bit-identity
	l.inner(shard, lo, hi)
	l.shardNs[shard] = time.Since(start).Nanoseconds() //misvet:allow(determinism) telemetry only: see the paired time.Now above
}

// runPool fans fn out on the pool; with metrics enabled it times each
// shard and records the spread (slowest minus fastest) — the imbalance
// signal for the phase's partition.
//
//misvet:noalloc
func (l *columnarLoop) runPool(fn func(shard, lo, hi int)) {
	if l.metrics == nil {
		l.pool.run(fn)
		return
	}
	l.inner = fn
	l.pool.run(l.timedFn)
	lo, hi := l.shardNs[0], l.shardNs[0]
	for _, ns := range l.shardNs[1:] {
		if ns < lo {
			lo = ns
		}
		if ns > hi {
			hi = ns
		}
	}
	l.metrics.ShardSpreadNs.Observe(hi - lo)
}

// close releases the loop's worker pool, if any.
func (l *columnarLoop) close() {
	if l.pool != nil {
		l.pool.close()
	}
}

// tallyRange bumps res.Beeps for every beeper packed in beeped's words
// [lo, hi) and returns how many there were. Each node's counter lives
// in its own slot, so range-sharded tallies stay disjoint.
//
//misvet:noalloc
func (l *columnarLoop) tallyRange(lo, hi int) int {
	count := 0
	for wi := lo; wi < hi; wi++ {
		w := l.beeped[wi]
		base := wi << 6
		for w != 0 {
			l.res.Beeps[base+mathbits.TrailingZeros64(w)]++
			w &= w - 1
			count++
		}
	}
	return count
}

//misvet:noalloc
func (l *columnarLoop) beepShard(shard, lo, hi int) {
	for i := lo; i < hi; i++ {
		l.beeped[i] = 0
	}
	l.ranger.BeepRange(l.eligible, l.streams, l.beeped, lo, hi)
	if l.metrics != nil {
		start := time.Now() //misvet:allow(determinism) telemetry only: times the tally, never steers results; TestMetricsDoNotPerturbResults pins bit-identity
		l.shardBeeps[shard] = l.tallyRange(lo, hi)
		l.tallyNs[shard] = time.Since(start).Nanoseconds() //misvet:allow(determinism) telemetry only: see the paired time.Now above
		return
	}
	l.shardBeeps[shard] = l.tallyRange(lo, hi)
}

// drawBeeps zeroes the beeped mask, has the kernel draw this round's
// beeps for every node in eligible, and tallies them into res.Beeps,
// returning the round's beep count. With a pool, a range-capable
// kernel, and enough active nodes to amortise the fan-out, the draw
// and tally run sharded; per-node streams make every node's draw
// independent of every other's, so the sharded sweep is bit-identical
// to the serial one.
//
//misvet:noalloc
func (l *columnarLoop) drawBeeps(eligible graph.Bitset, active int) int {
	if l.pool != nil && l.ranger != nil && active >= drawShardMinNodes {
		l.eligible = eligible
		l.runPool(l.beepFn)
		total := 0
		for _, c := range l.shardBeeps {
			total += c
		}
		if l.metrics != nil {
			// Under fan-out, tally cost is whatever the slowest shard
			// spent tallying — the critical-path share of the phase wall.
			var maxNs int64
			for _, ns := range l.tallyNs {
				if ns > maxNs {
					maxNs = ns
				}
			}
			l.lastTallyNs = maxNs
		}
		return total
	}
	l.beeped.Zero()
	l.bulk.BeepAll(eligible, l.streams, l.beeped)
	if l.metrics != nil {
		start := time.Now() //misvet:allow(determinism) telemetry only: times the tally, never steers results; TestMetricsDoNotPerturbResults pins bit-identity
		total := l.tallyRange(0, len(l.beeped))
		l.lastTallyNs = time.Since(start).Nanoseconds() //misvet:allow(determinism) telemetry only: see the paired time.Now above
		return total
	}
	return l.tallyRange(0, len(l.beeped))
}

// exchangeShard runs one shard's range of the current plan: a
// destination range of the exchange's dst, or, for a Scatter plan, an
// emitter range into the shard's own buffer (shard 0's is dst).
//
//misvet:noalloc
func (l *columnarLoop) exchangeShard(shard, lo, hi int) {
	dst := l.xdst
	if l.xplan.Scatter && shard > 0 {
		dst = l.scatter[shard-1]
	}
	l.prop.ExchangeRange(l.xplan, dst, l.eligible, l.xemit, lo, hi)
}

// mergeShard ORs the scatter buffers' words [lo, hi) into the
// exchange's dst, finishing a Scatter exchange.
//
//misvet:noalloc
func (l *columnarLoop) mergeShard(_, lo, hi int) {
	graph.MergeRange(l.xdst, l.scatter, lo, hi)
}

// exchange delivers one beeping exchange: dst becomes the union of the
// emitters' neighbourhoods, correct at least at the bits in eligible.
// The propagator plans the direction, the partition and whether
// fan-out pays; fanned exchanges run on the persistent pool instead of
// spawning goroutines. A Scatter plan takes two pool phases: every
// shard scatters its emitter range's rows into its own buffer, then
// every shard merges the buffers over its destination range.
//
//misvet:noalloc
func (l *columnarLoop) exchange(dst, eligible, emitters graph.Bitset) {
	plan := l.prop.PlanExchange(eligible, emitters, l.shards)
	fanned := l.pool != nil && !plan.Serial
	if l.metrics != nil {
		if plan.Pull {
			l.metrics.PullExchanges.Inc()
		} else {
			l.metrics.PushExchanges.Inc()
		}
		if plan.Serial {
			l.metrics.SerialExchanges.Inc()
		}
		if fanned && plan.Scatter {
			l.metrics.ScatterExchanges.Inc()
		}
	}
	if fanned {
		l.xplan, l.xdst, l.eligible, l.xemit = plan, dst, eligible, emitters
		l.runPool(l.exchangeFn)
		if plan.Scatter {
			l.runPool(l.mergeFn)
		}
	} else {
		l.prop.ExchangeRange(plan, dst, eligible, emitters, 0, len(dst))
	}
	if l.metrics != nil {
		l.metrics.PropagateBits.Add(uint64(dst.Count()))
	}
}

// loseBeeps applies per-edge beep loss to the first exchange: every
// eligible listener whose heard bit is set counts its emitting
// neighbours k and keeps the bit with probability 1 − loss^k, one draw
// from its own (listener, round) stream. It runs serially after the
// exchange has joined, in increasing node order, and is only reached
// when loss is on — loss-free runs never count k.
//
//misvet:noalloc
func (l *columnarLoop) loseBeeps(loss *fault.BeepLoss, master *rng.Source, round int, eligible, emitters graph.Bitset) {
	for wi, w := range l.heard {
		w &= eligible[wi]
		base := wi << 6
		for w != 0 {
			v := base + mathbits.TrailingZeros64(w)
			w &= w - 1
			if !loss.Hears(master, round, v, l.prop.NeighborsIn(v, emitters)) {
				l.heard.Clear(v)
			}
		}
	}
}

//misvet:noalloc
func (l *columnarLoop) observeShard(_, lo, hi int) {
	l.ranger.ObserveRange(l.observeMask, l.beeped, l.heard, lo, hi)
}

// observe delivers the step's outcome to every node in mask, sharded
// under the same conditions as drawBeeps.
//
//misvet:noalloc
func (l *columnarLoop) observe(mask graph.Bitset, active int) {
	if l.pool != nil && l.ranger != nil && active >= drawShardMinNodes {
		l.observeMask = mask
		l.runPool(l.observeFn)
		return
	}
	l.bulk.ObserveAll(mask, l.beeped, l.heard)
}

// runColumnar is the simulator's round loop. It executes entirely on
// packed words: node lifecycle masks are bitsets, beeps are drawn by
// the algorithm's bulk kernel (or the per-node adapter) over
// struct-of-arrays state, joins are one AndNot (beeped &^ heard), and
// both exchanges are sharded OR passes over prop's adjacency
// representation — the packed matrix for EngineColumnar, the graph's
// own sorted rows for EngineSparse (see exchange). Per round it does
// O(n/64) word operations plus one rng draw per eligible node, and the
// kernel draws from the per-node streams in node order, so the result
// is a pure function of (graph, algorithm, seed, options) whatever the
// engine or shard count.
//
// All shardable phases (draws, tallies, exchanges, observes) run on
// one persistent worker pool created at setup, and every buffer the
// loop touches is allocated before round 1 — the steady-state round
// path performs no heap allocations at any shard count (enforced by
// TestRoundLoopAllocations).
func runColumnar(r *preparedRun, prop bulkPropagator) (*Result, error) {
	g, master, opts, maxRounds, plan := r.g, r.master, r.opts, r.maxRounds, r.plan
	n := g.N()
	degrees := make([]int, n)
	// Per-node streams live in one contiguous backing array: at 10⁶
	// nodes, a million separate Stream allocations are measurable in
	// both time and GC pressure.
	streamStore := make([]rng.Source, n)
	streams := make([]*rng.Source, n)
	for v := 0; v < n; v++ {
		degrees[v] = g.Degree(v)
		master.StreamInto(&streamStore[v], uint64(v))
		streams[v] = &streamStore[v]
	}
	bulk := r.bulk(beep.NetworkInfo{N: n, Degrees: degrees, MaxDegree: g.MaxDegree()})
	var resetter beep.BulkResetter
	if plan != nil && plan.hasResets {
		var ok bool
		if resetter, ok = bulk.(beep.BulkResetter); !ok {
			// Every in-tree kernel (and the per-node adapter) implements
			// BulkResetter; a third-party kernel that does not cannot run
			// reset recoveries bit-identically, so refuse rather than
			// silently diverge from the per-node automata.
			return nil, fmt.Errorf("sim: fault spec schedules reset outages but the bulk kernel (%T) does not implement beep.BulkResetter (leave Options.Bulk nil to run the per-node automata)", bulk)
		}
	}
	shards := EffectiveShards(opts.Shards)

	res := &Result{
		InMIS:  make([]bool, n),
		States: make([]beep.State, n),
		Beeps:  make([]int, n),
	}
	active := n

	// Lifecycle masks. A node is dominated iff it is in none of these
	// three, so no fourth mask is kept.
	activeB := graph.NewBitset(n)
	activeB.Fill(n)
	inMIS := graph.NewBitset(n)
	crashed := graph.NewBitset(n)

	// Per-round masks and scratch.
	beeped := graph.NewBitset(n)
	heard := graph.NewBitset(n)
	joined := graph.NewBitset(n)
	neighborJoined := graph.NewBitset(n)
	emit := graph.NewBitset(n)    // emitter/announcer union under wake-up
	observe := graph.NewBitset(n) // nodes still active after the step
	newDom := graph.NewBitset(n)  // nodes dominated this step
	hasNeighbors := graph.NewBitset(n)
	for v := 0; v < n; v++ {
		if degrees[v] > 0 {
			hasNeighbors.Set(v)
		}
	}

	metrics := opts.Metrics
	loop := newColumnarLoop(prop, bulk, streams, res, beeped, heard, shards, metrics)
	defer loop.close()
	clock := phaseClock{m: metrics}

	// Wake-up schedule: awake accumulates as rounds pass; wakeAt[r]
	// lists the nodes waking at round r.
	wake := opts.WakeAt
	var awake, eligibleScratch graph.Bitset
	var wakeAt map[int][]int
	if wake != nil {
		awake = graph.NewBitset(n)
		wakeAt = make(map[int][]int)
		for v, r := range wake {
			if r <= 1 {
				awake.Set(v)
			} else {
				wakeAt[r] = append(wakeAt[r], v)
			}
		}
	}
	// Transient-outage overlay: a down node neither beeps, hears, nor
	// observes, whatever its lifecycle state. Persistent MIS beeping and
	// re-announcing is needed whenever a node can arrive late to an
	// established set: staggered wake-up, and outages (a node down
	// during its neighbour's announcement misses the domination and
	// must be able to catch up after recovering).
	var downB graph.Bitset
	if plan.outages() {
		downB = graph.NewBitset(n)
	}
	usePersist := wake != nil || downB != nil
	if wake != nil || downB != nil {
		eligibleScratch = graph.NewBitset(n)
	}
	// MIS-delta scratch for the OnMISDelta hook (and reset bookkeeping).
	var joinedDelta, leftDelta []int

	// Snapshot buffers, materialised only when a hook is installed.
	var snapStates []beep.State
	var snapBeeped []bool
	var probs []float64

	for round := 1; (active > 0 || plan.keepAlive(round)) && round <= maxRounds; round++ {
		res.Rounds = round
		clock.start()
		prevPersist := res.PersistentBeeps
		// Crashes take effect before the exchange. (Entries are range-
		// and duplicate-checked up front; a listed node that already
		// terminated is a no-op.)
		for _, v := range opts.CrashAtRound[round] {
			if activeB.Test(v) {
				activeB.Clear(v)
				crashed.Set(v)
				active--
			}
		}
		// Outage recoveries, then fresh downs (in that order, so a
		// back-to-back outage pair keeps the node down through the
		// boundary round while still applying the recovery semantics).
		leftDelta = leftDelta[:0]
		if plan.outages() {
			for _, v := range plan.resumeAt[round] {
				downB.Clear(v)
			}
			resets := plan.resetAt[round]
			for _, v := range resets {
				downB.Clear(v)
				// Reset recovery: the node comes back as a freshly
				// started active competitor, whatever it was before. A
				// departing MIS member is reported to the delta hook —
				// its dominated neighbours stay dominated (they cannot
				// know), which is exactly the transient maximality hole
				// fault.Verifier measures.
				if inMIS.Test(v) {
					inMIS.Clear(v)
					leftDelta = append(leftDelta, v)
				}
				// A reset node re-enters the competition from scratch;
				// crashed is impossible here (crash/outage overlap is
				// rejected up front), so any non-active node was in the
				// MIS or dominated and becomes active again.
				if !activeB.Test(v) {
					activeB.Set(v)
					active++
				}
			}
			if len(resets) > 0 {
				resetter.ResetNodes(resets)
			}
			for _, v := range plan.startAt[round] {
				downB.Set(v)
			}
		}
		clock.mark(obs.PhaseFaults)
		// First exchange: the kernel draws beeps for every eligible
		// (active, awake, and up) node from that node's stream.
		eligible := activeB
		if wake != nil || downB != nil {
			if wake != nil {
				for _, v := range wakeAt[round] {
					awake.Set(v)
				}
			}
			copy(eligibleScratch, activeB)
			if wake != nil {
				eligibleScratch.And(awake)
			}
			if downB != nil {
				eligibleScratch.AndNot(downB)
			}
			eligible = eligibleScratch
		}
		beepCount := loop.drawBeeps(eligible, active)
		res.TotalBeeps += beepCount
		// The columnar loop times the tally separately inside drawBeeps;
		// pull its critical-path share out of the draw wall time.
		clock.mark(obs.PhaseEligibleDraw)
		clock.move(obs.PhaseEligibleDraw, obs.PhaseBeepTally, loop.lastTallyNs)
		// With wake-up scheduling or outages, established MIS members
		// keep beeping so late arrivals can never perceive silence next
		// to them — except while themselves down (down nodes never beep,
		// so masking them out of the union touches only MIS members).
		emitters := beeped
		if usePersist {
			pcount := inMIS.Count()
			if downB != nil {
				pcount -= inMIS.AndCount(downB)
			}
			res.PersistentBeeps += pcount
			copy(emit, beeped)
			emit.Or(inMIS)
			if downB != nil {
				emit.AndNot(downB)
			}
			emitters = emit
		}
		if metrics != nil {
			metrics.Frontier.Observe(int64(beepCount + res.PersistentBeeps - prevPersist))
		}
		loop.exchange(heard, eligible, emitters)
		clock.mark(obs.PhasePropagate)
		// Beep loss, then channel noise: each eligible listener's heard
		// bit is thinned by per-edge loss and then passes through the
		// lossy/spurious channel, each drawn from that (node, round)'s
		// own stream — identical on every engine. Both stay serial: each
		// reuses one scratch stream across nodes.
		channel := plan != nil && plan.channel != nil
		if r.loss != nil || channel {
			if r.loss != nil {
				loop.loseBeeps(r.loss, master, round, eligible, emitters)
			}
			if channel {
				plan.channel.Apply(master, round, eligible, heard)
			}
			clock.mark(obs.PhaseFaults)
		}
		// Join rule: beeped into silence — one word operation.
		copy(joined, beeped)
		joined.AndNot(heard)
		res.JoinAnnouncements += joined.AndCount(hasNeighbors)
		// Second exchange: join announcements (reliable); persistent
		// MIS members re-announce so nodes arriving later get dominated.
		announcers := joined
		if usePersist {
			copy(emit, joined)
			emit.Or(inMIS)
			if downB != nil {
				emit.AndNot(downB)
			}
			announcers = emit
		}
		loop.exchange(neighborJoined, eligible, announcers)
		clock.mark(obs.PhaseJoin)
		// State transitions: joiners enter the MIS, eligible nodes that
		// heard an announcement become dominated, the rest observe the
		// step. Masks are fixed before activeB mutates (eligible may
		// alias it).
		copy(observe, eligible)
		observe.AndNot(joined)
		observe.AndNot(neighborJoined)
		copy(newDom, eligible)
		newDom.And(neighborJoined)
		newDom.AndNot(joined)
		active -= joined.Count() + newDom.Count()
		activeB.AndNot(joined)
		activeB.AndNot(newDom)
		inMIS.Or(joined)
		loop.observe(observe, active)
		clock.mark(obs.PhaseObserve)
		clock.flush()
		if opts.OnMISDelta != nil {
			joinedDelta = joinedDelta[:0]
			joined.ForEach(func(v int) { joinedDelta = append(joinedDelta, v) })
			if len(joinedDelta) > 0 || len(leftDelta) > 0 {
				opts.OnMISDelta(round, joinedDelta, leftDelta)
			}
		}
		if opts.OnRound != nil {
			if snapStates == nil {
				snapStates = make([]beep.State, n)
				snapBeeped = make([]bool, n)
				probs = make([]float64, n)
			}
			materializeStates(snapStates, activeB, inMIS, crashed)
			for v := range snapBeeped {
				snapBeeped[v] = beeped.Test(v)
			}
			if pr, ok := bulk.(beep.BulkProbabilityReporter); ok {
				pr.BeepProbabilities(probs)
			} else {
				for v := range probs {
					probs[v] = math.NaN()
				}
			}
			for v := range probs {
				if snapStates[v] != beep.StateActive {
					probs[v] = 0
				}
			}
			opts.OnRound(Snapshot{Round: round, States: snapStates, Beeped: snapBeeped, Probabilities: probs, Active: active})
		}
	}

	materializeStates(res.States, activeB, inMIS, crashed)
	inMIS.ForEach(func(v int) { res.InMIS[v] = true })
	res.Terminated = active == 0
	if metrics != nil {
		metrics.Runs.Inc()
	}
	if !res.Terminated {
		return res, fmt.Errorf("%w: %d nodes still active after %d rounds", ErrTooManyRounds, active, maxRounds)
	}
	return res, nil
}

// materializeStates expands the three lifecycle masks into the per-node
// state view the Result and Snapshot types expose.
func materializeStates(dst []beep.State, activeB, inMIS, crashed graph.Bitset) {
	for v := range dst {
		switch {
		case activeB.Test(v):
			dst[v] = beep.StateActive
		case inMIS.Test(v):
			dst[v] = beep.StateInMIS
		case crashed.Test(v):
			dst[v] = beep.StateCrashed
		default:
			dst[v] = beep.StateDominated
		}
	}
}
