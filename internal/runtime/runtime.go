// Package runtime executes beeping-model algorithms with one goroutine
// per node and channels as communication links — a genuinely concurrent
// message-passing realisation of the same synchronous model that
// internal/sim simulates sequentially.
//
// Per time step each node goroutine performs the paper's two exchanges:
// it sends its beep bit to every neighbour and reads theirs, then sends
// and reads join announcements, then updates its automaton. A coordinator
// collects per-round statuses and broadcasts continue/stop. Because every
// node draws randomness from the same per-node stream the simulator uses,
// a run here is bit-for-bit identical to the simulator's run from the
// same seed — TestEngineEquivalence in this package enforces that.
package runtime

import (
	"errors"
	"fmt"
	"sync"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

// DefaultMaxRounds bounds a run when Options.MaxRounds is zero.
const DefaultMaxRounds = 1 << 20

// ErrTooManyRounds is wrapped in the error returned when the round limit
// is reached before all nodes terminate.
var ErrTooManyRounds = errors.New("runtime: round limit reached before termination")

// Options configures a concurrent run.
type Options struct {
	// MaxRounds caps the number of time steps; 0 means DefaultMaxRounds.
	MaxRounds int
}

// Result reports a completed (or round-capped) concurrent execution,
// mirroring the simulator's result fields.
type Result struct {
	// InMIS is the membership vector of the computed independent set.
	InMIS []bool
	// States holds each node's final state.
	States []beep.State
	// Rounds is the number of time steps executed.
	Rounds int
	// Beeps counts first-exchange beeps per node.
	Beeps []int
	// TotalBeeps is the sum of Beeps.
	TotalBeeps int
	// Terminated reports whether all nodes finished within the limit.
	Terminated bool
}

// nodeStatus is what each node reports to the coordinator after a round.
type nodeStatus struct {
	id     int
	state  beep.State
	beeped bool
}

// Run executes factory's algorithm on g concurrently. All spawned
// goroutines are joined before Run returns, on every path.
func Run(g *graph.Graph, factory beep.Factory, master *rng.Source, opts Options) (*Result, error) {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	n := g.N()
	res := &Result{
		InMIS:  make([]bool, n),
		States: make([]beep.State, n),
		Beeps:  make([]int, n),
	}
	if n == 0 {
		res.Terminated = true
		return res, nil
	}

	// Directed links: link[u][i] carries u's bit to its i-th neighbour.
	// Capacity 1 is load-bearing: each exchange puts exactly one message
	// on each directed link and the receiver drains it within the same
	// exchange, so a single buffer slot prevents the symmetric
	// send/receive deadlock that unbuffered links would cause.
	links := make([][]chan bool, n)
	for u := 0; u < n; u++ {
		nbrs := g.Neighbors(u)
		links[u] = make([]chan bool, len(nbrs))
		for i := range nbrs {
			links[u][i] = make(chan bool, 1)
		}
	}
	// inbox[v] lists, for each neighbour of v in adjacency order, the
	// channel that neighbour sends to v on.
	inbox := make([][]chan bool, n)
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(v)
		inbox[v] = make([]chan bool, len(nbrs))
		for i, w := range nbrs {
			// Find v's position in w's adjacency list.
			pos := indexOf(g.Neighbors(int(w)), int32(v))
			inbox[v][i] = links[w][pos]
		}
	}

	cmds := make([]chan bool, n) // true = run another round, false = stop
	for v := range cmds {
		cmds[v] = make(chan bool, 1)
	}
	statusCh := make(chan nodeStatus, 1)

	maxDeg := g.MaxDegree()
	var wg sync.WaitGroup
	for v := 0; v < n; v++ {
		v := v
		wg.Add(1)
		go func() {
			defer wg.Done()
			runNode(v, g, maxDeg, factory, master.Stream(uint64(v)), cmds[v], links[v], inbox[v], statusCh)
		}()
	}

	active := n
	states := res.States
	for v := range states {
		states[v] = beep.StateActive
	}
	round := 0
	for active > 0 && round < maxRounds {
		round++
		for v := 0; v < n; v++ {
			cmds[v] <- true
		}
		for i := 0; i < n; i++ {
			st := <-statusCh
			if states[st.id] == beep.StateActive && st.state != beep.StateActive {
				active--
			}
			states[st.id] = st.state
			if st.beeped {
				res.Beeps[st.id]++
				res.TotalBeeps++
			}
		}
	}
	for v := 0; v < n; v++ {
		cmds[v] <- false
	}
	wg.Wait()

	res.Rounds = round
	for v, st := range states {
		res.InMIS[v] = st == beep.StateInMIS
	}
	res.Terminated = active == 0
	if !res.Terminated {
		return res, fmt.Errorf("%w: %d nodes still active after %d rounds", ErrTooManyRounds, active, maxRounds)
	}
	return res, nil
}

// runNode is the per-node goroutine body; maxDeg is g's maximum degree,
// found once per run. A node that reaches a terminal state keeps
// participating in the exchanges (sending "no beep" / "no join") so its
// neighbours' reads never block, until the coordinator broadcasts stop.
func runNode(
	id int,
	g *graph.Graph,
	maxDeg int,
	factory beep.Factory,
	src *rng.Source,
	cmd <-chan bool,
	out []chan bool,
	in []chan bool,
	status chan<- nodeStatus,
) {
	auto := factory(beep.NodeInfo{ID: id, N: g.N(), Degree: g.Degree(id), MaxDegree: maxDeg})
	state := beep.StateActive
	for <-cmd {
		beeped := false
		if state == beep.StateActive {
			beeped = auto.Beep(src)
		}
		// First exchange: beep bits.
		for _, ch := range out {
			ch <- beeped
		}
		heard := false
		for _, ch := range in {
			if <-ch {
				heard = true
			}
		}
		// Second exchange: join announcements.
		join := state == beep.StateActive && beeped && !heard
		for _, ch := range out {
			ch <- join
		}
		neighborJoined := false
		for _, ch := range in {
			if <-ch {
				neighborJoined = true
			}
		}
		if state == beep.StateActive {
			switch {
			case join:
				state = beep.StateInMIS
			case neighborJoined:
				state = beep.StateDominated
			default:
				auto.Observe(beep.Outcome{Beeped: beeped, Heard: heard, NeighborJoined: neighborJoined})
			}
		}
		status <- nodeStatus{id: id, state: state, beeped: beeped}
	}
}

// indexOf returns the position of x in the sorted slice lst, or -1. The
// adjacency lists are sorted, but the lists are short enough that a
// linear scan at setup time is simpler and the cost is O(m) overall.
func indexOf(lst []int32, x int32) int {
	for i, v := range lst {
		if v == x {
			return i
		}
	}
	return -1
}
