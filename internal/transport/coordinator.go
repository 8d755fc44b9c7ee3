package transport

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
)

// DefaultIOTimeout bounds a round's network operations, and each
// connection's handshake, at the coordinator and at a node, so a dead
// peer fails the run instead of hanging it.
const DefaultIOTimeout = 30 * time.Second

// Errors matched by callers.
var (
	// ErrVertexClaimed indicates two connections claimed the same vertex.
	ErrVertexClaimed = errors.New("transport: vertex already claimed")
	// ErrTooManyRounds is wrapped in the error Serve returns when the
	// round cap is reached before every vertex terminates.
	ErrTooManyRounds = errors.New("transport: round limit reached before termination")
)

// CoordinatorOptions configures Serve.
type CoordinatorOptions struct {
	// MaxRounds caps the number of time steps; 0 means no cap beyond
	// 2^20.
	MaxRounds int
	// IOTimeout bounds each round's network operations, all five
	// exchanges together, and each connection's handshake; 0 means
	// DefaultIOTimeout.
	IOTimeout time.Duration
}

// CoordinatorResult is the outcome of a distributed run.
type CoordinatorResult struct {
	// InMIS is the computed independent set, indexed by vertex.
	InMIS []bool
	// Rounds is the number of time steps executed.
	Rounds int
	// Beeps counts each vertex's first-exchange beeps, read from the
	// beep frames it sent.
	Beeps []int
	// TotalBeeps is the sum of Beeps.
	TotalBeeps int
}

// Coordinator accepts one connection per vertex of its graph and drives
// the synchronous beeping rounds over the network.
type Coordinator struct {
	g  *graph.Graph
	ln net.Listener
}

// NewCoordinator starts listening on addr (e.g. "127.0.0.1:0") for the
// vertices of g. Close the coordinator to release the listener.
func NewCoordinator(g *graph.Graph, addr string) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("coordinator listen: %w", err)
	}
	return &Coordinator{g: g, ln: ln}, nil
}

// Addr returns the listening address, for nodes to dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close releases the listener.
func (c *Coordinator) Close() error { return c.ln.Close() }

// vertexConn is a connected, vertex-claimed peer.
type vertexConn struct {
	conn net.Conn
	fc   *Conn
}

// Serve accepts g.N() vertex connections, runs the protocol to
// completion, and returns the MIS. It must be called once.
func (c *Coordinator) Serve(opts CoordinatorOptions) (*CoordinatorResult, error) {
	timeout := opts.IOTimeout
	if timeout <= 0 {
		timeout = DefaultIOTimeout
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1 << 20
	}
	n := c.g.N()
	conns := make([]*vertexConn, n)
	defer func() {
		for _, vc := range conns {
			if vc != nil {
				_ = vc.conn.Close()
			}
		}
	}()

	// Every welcome carries the max degree, an O(n) scan: find it once.
	maxDeg := c.g.MaxDegree()

	// Accept and handshake until every vertex is claimed. Connections
	// that fail before a well-formed hello (port scanners, health
	// probes, dropped dials) are tolerated and simply closed; protocol
	// violations after a valid hello — duplicate or out-of-range vertex
	// claims — indicate misconfiguration and abort the run.
	for claimed := 0; claimed < n; {
		raw, err := c.ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("coordinator accept: %w", err)
		}
		_ = raw.SetDeadline(time.Now().Add(timeout))
		fc := NewConn(raw)
		hello, err := fc.Expect(TypeHello)
		if err != nil {
			_ = raw.Close()
			continue
		}
		ids, err := payloadU32s(hello, 1)
		if err != nil {
			_ = raw.Close()
			continue
		}
		id := int(ids[0])
		if id < 0 || id >= n {
			err := fmt.Errorf("%w: hello for vertex %d with n=%d", graph.ErrVertexRange, id, n)
			_ = fc.Send(Frame{Type: TypeReject, Payload: []byte(err.Error())})
			_ = raw.Close()
			return nil, err
		}
		if conns[id] != nil {
			// Two node processes whose -vertices ranges overlap land
			// here; tell the second one why before aborting the run.
			err := fmt.Errorf("%w: vertex %d (another node process already hosts it — check -vertices ranges for overlap)", ErrVertexClaimed, id)
			_ = fc.Send(Frame{Type: TypeReject, Payload: []byte(err.Error())})
			_ = raw.Close()
			return nil, err
		}
		welcome := u32Payload(uint32(n), uint32(c.g.Degree(id)), uint32(maxDeg))
		if err := fc.Send(Frame{Type: TypeWelcome, Payload: welcome}); err != nil {
			_ = raw.Close()
			return nil, fmt.Errorf("handshake welcome: %w", err)
		}
		conns[id] = &vertexConn{conn: raw, fc: fc}
		claimed++
	}

	res := &CoordinatorResult{InMIS: make([]bool, n), Beeps: make([]int, n)}
	states := make([]beep.State, n)
	for v := range states {
		states[v] = beep.StateActive
	}
	active := n
	beeped := make([]bool, n)
	heard := make([]bool, n)
	joined := make([]bool, n)
	neighborJoined := make([]bool, n)

	// broadcast sends a frame to every vertex concurrently; gather reads
	// one expected frame from every vertex concurrently. Concurrency
	// matters here: with sequential I/O a slow peer would serialise the
	// whole round.
	broadcast := func(mk func(v int) Frame) error {
		return forAll(conns, func(v int, vc *vertexConn) error {
			return vc.fc.Send(mk(v))
		})
	}
	gatherBool := func(want uint8, into []bool) error {
		return forAll(conns, func(v int, vc *vertexConn) error {
			f, err := vc.fc.Expect(want)
			if err != nil {
				return err
			}
			b, err := payloadBool(f)
			if err != nil {
				return err
			}
			into[v] = b
			return nil
		})
	}

	round := 0
	for active > 0 && round < maxRounds {
		round++
		// One deadline per round, as each node sets: the round's five
		// exchanges share it, and so does the stop frame after the last.
		deadline := time.Now().Add(timeout)
		for _, vc := range conns {
			_ = vc.conn.SetDeadline(deadline)
		}
		if err := broadcast(func(int) Frame {
			return Frame{Type: TypeRound, Payload: u32Payload(uint32(round))}
		}); err != nil {
			return nil, fmt.Errorf("round %d start: %w", round, err)
		}
		// First exchange.
		if err := gatherBool(TypeBeep, beeped); err != nil {
			return nil, fmt.Errorf("round %d beeps: %w", round, err)
		}
		// Only an active vertex beeps. A bit the protocol forbids is a
		// faulty or hostile node, and taking it could certify a set
		// that is not independent.
		for v, b := range beeped {
			if b && states[v] != beep.StateActive {
				return nil, fmt.Errorf("%w: round %d: vertex %d beeped while %v", ErrBadFrame, round, v, states[v])
			}
			if b {
				res.Beeps[v]++
				res.TotalBeeps++
			}
		}
		for v := range heard {
			heard[v] = slices.ContainsFunc(c.g.Neighbors(v), func(w int32) bool { return beeped[w] })
		}
		if err := broadcast(func(v int) Frame {
			return Frame{Type: TypeHeard, Payload: boolByte(heard[v])}
		}); err != nil {
			return nil, fmt.Errorf("round %d heard: %w", round, err)
		}
		// Second exchange. Only an active vertex that beeped and heard
		// nothing joins; a beep already implies an active vertex. The
		// coordinator then settles the step once, before announcing it:
		// every vertex's neighbour-joined bit, and the transitions of the
		// active ones.
		if err := gatherBool(TypeJoin, joined); err != nil {
			return nil, fmt.Errorf("round %d joins: %w", round, err)
		}
		for v, j := range joined {
			if j && (!beeped[v] || heard[v]) {
				return nil, fmt.Errorf("%w: round %d: vertex %d joined while %v, beeped %v, heard %v", ErrBadFrame, round, v, states[v], beeped[v], heard[v])
			}
		}
		for v, st := range states {
			nj := false
			for _, w := range c.g.Neighbors(v) {
				if joined[w] {
					nj = true
					break
				}
			}
			neighborJoined[v] = nj
			if next := nextState(st, joined[v], nj); next != st {
				states[v] = next
				res.InMIS[v] = next == beep.StateInMIS
				active--
			}
		}
		if err := broadcast(func(v int) Frame {
			return Frame{Type: TypeOutcome, Payload: []byte{byte(states[v]), boolByte(neighborJoined[v])[0]}}
		}); err != nil {
			return nil, fmt.Errorf("round %d outcome: %w", round, err)
		}
	}
	res.Rounds = round
	if err := broadcast(func(int) Frame { return Frame{Type: TypeStop} }); err != nil {
		return nil, fmt.Errorf("stop broadcast: %w", err)
	}
	if active > 0 {
		return res, fmt.Errorf("%w: %d vertices still active after %d rounds", ErrTooManyRounds, active, maxRounds)
	}
	return res, nil
}

// forAll runs fn for each vertex connection concurrently and returns the
// first error (if any) after all goroutines finish.
func forAll(conns []*vertexConn, fn func(v int, vc *vertexConn) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for v, vc := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[v] = fn(v, vc)
		}()
	}
	wg.Wait()
	for v, err := range errs {
		if err != nil {
			return fmt.Errorf("vertex %d: %w", v, err)
		}
	}
	return nil
}
