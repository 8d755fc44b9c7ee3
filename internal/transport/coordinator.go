package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net"
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
	// IOTimeout bounds each round's network operations, all four
	// frames together, and each connection's handshake; 0 means
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

// Coordinator accepts one connection per node process, each claiming a
// set of its graph's vertices, and drives the synchronous beeping rounds
// over the network.
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

// peer is a connected node process and the vertices its hello claimed,
// in claim order.
type peer struct {
	conn  net.Conn
	fc    *Conn
	claim []int
	// buf holds the peer's outgoing bit fields and outcomes, one byte
	// per claimed vertex; each is sent before the next is built.
	buf []byte
}

// Serve accepts connections until every vertex of g is claimed, runs the
// protocol to completion, and returns the MIS. It must be called once.
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
	var peers []*peer
	defer func() {
		for _, p := range peers {
			_ = p.conn.Close()
		}
	}()
	welcome := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, uint32(n)), uint32(c.g.MaxDegree()))

	// Accept and handshake until every vertex is claimed. Connections
	// that fail before a hello (port scanners, health probes, dropped
	// dials) are tolerated and simply closed; a hello whose claim is
	// malformed, out of range or overlaps another indicates
	// misconfiguration and aborts the run.
	claimed := graph.NewBitset(n)
	for left := n; left > 0; {
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
		claim, err := readClaim(hello.Payload, n, claimed)
		if err == nil {
			err = fc.Send(Frame{Type: TypeWelcome, Payload: welcome})
		}
		if err != nil {
			_ = fc.Send(Frame{Type: TypeReject, Payload: []byte(err.Error())})
			_ = raw.Close()
			return nil, fmt.Errorf("handshake: %w", err)
		}
		peers = append(peers, &peer{conn: raw, fc: fc, claim: claim, buf: make([]byte, len(claim))})
		left -= len(claim)
	}

	res := &CoordinatorResult{InMIS: make([]bool, n), Beeps: make([]int, n)}
	active, inSet := graph.NewBitset(n), graph.NewBitset(n)
	active.Fill(n)
	beeped, heard, joined, neighborJoined := graph.NewBitset(n), graph.NewBitset(n), graph.NewBitset(n), graph.NewBitset(n)
	silent := graph.NewBitset(n) // beeped and heard nothing: may join
	// exchange sets dst, at least at the vertices of active, to those
	// with a neighbour in emitters: the simulator's exchange, on one
	// shard.
	exchange := func(dst, emitters graph.Bitset) {
		c.g.ExchangeRange(c.g.PlanExchange(active, emitters, 1), dst, active, emitters, 0, len(dst))
	}
	state := func(v int) beep.State {
		switch {
		case active.Test(v):
			return beep.StateActive
		case inSet.Test(v):
			return beep.StateInMIS
		}
		return beep.StateDominated
	}

	round := 0
	for active.Any() && round < maxRounds {
		round++
		// One deadline per round, as each node sets: the round's four
		// exchanges share it. The welcome or the last outcome started
		// the round, so the first exchange is the nodes' beeps.
		deadline := time.Now().Add(timeout)
		for _, p := range peers {
			_ = p.conn.SetDeadline(deadline)
		}
		beeped.Zero()
		if err := gatherBits(peers, TypeBeep, beeped); err != nil {
			return nil, fmt.Errorf("round %d beeps: %w", round, err)
		}
		// Only an active vertex beeps, and only an active vertex that
		// beeped and heard nothing joins. A bit the protocol forbids is a
		// faulty or hostile node, and taking it could certify a set that
		// is not independent.
		if v := firstNotIn(beeped, active); v >= 0 {
			return nil, fmt.Errorf("%w: round %d: vertex %d beeped while %v", ErrBadFrame, round, v, state(v))
		}
		beeped.ForEach(func(v int) { res.Beeps[v]++ })
		res.TotalBeeps += beeped.Count()
		exchange(heard, beeped)
		if err := broadcastBits(peers, TypeHeard, heard); err != nil {
			return nil, fmt.Errorf("round %d heard: %w", round, err)
		}
		joined.Zero()
		if err := gatherBits(peers, TypeJoin, joined); err != nil {
			return nil, fmt.Errorf("round %d joins: %w", round, err)
		}
		copy(silent, beeped)
		silent.AndNot(heard)
		if v := firstNotIn(joined, silent); v >= 0 {
			return nil, fmt.Errorf("%w: round %d: vertex %d joined while %v, beeped %v, heard %v", ErrBadFrame, round, v, state(v), beeped.Test(v), heard.Test(v))
		}
		// Settle the step once, before announcing it: every active
		// vertex's neighbour-joined bit, then the transitions, which are
		// nextState's as one word operation each.
		exchange(neighborJoined, joined)
		inSet.Or(joined)
		active.AndNot(joined)
		active.AndNot(neighborJoined)
		typ := TypeOutcome
		if !active.Any() || round == maxRounds {
			typ = TypeStop
		}
		for _, p := range peers {
			outcome := p.buf
			for i, v := range p.claim {
				outcome[i] = byte(state(v))
				if neighborJoined.Test(v) {
					outcome[i] |= neighborJoinedFlag
				}
			}
			if err := p.send(Frame{Type: typ, Payload: outcome}); err != nil {
				return nil, fmt.Errorf("round %d outcome: %w", round, err)
			}
		}
	}
	res.Rounds = round
	inSet.ForEach(func(v int) { res.InMIS[v] = true })
	if left := active.Count(); left > 0 {
		return res, fmt.Errorf("%w: %d vertices still active after %d rounds", ErrTooManyRounds, left, maxRounds)
	}
	return res, nil
}

// send sends f to p.
func (p *peer) send(f Frame) error { return p.named(p.fc.Send(f)) }

// named wraps a failure on p's connection, if any, with p's claim.
func (p *peer) named(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("peer claiming %d vertices from vertex %d: %w", len(p.claim), p.claim[0], err)
}

// gatherBits reads each peer's frame of type want and adds to set the
// claimed vertices whose bits it sets.
func gatherBits(peers []*peer, want uint8, set graph.Bitset) error {
	for _, p := range peers {
		f, err := p.fc.Expect(want)
		if err == nil {
			err = payloadBits(f, len(p.claim), func(i int) { set.Set(p.claim[i]) })
		}
		if err != nil {
			return p.named(err)
		}
	}
	return nil
}

// broadcastBits sends each peer a frame of type typ that carries set's
// bits of its claimed vertices.
func broadcastBits(peers []*peer, typ uint8, set graph.Bitset) error {
	for _, p := range peers {
		payload := bitsPayload(p.buf, len(p.claim), func(i int) bool { return set.Test(p.claim[i]) })
		if err := p.send(Frame{Type: typ, Payload: payload}); err != nil {
			return err
		}
	}
	return nil
}

// firstNotIn returns the least element of a that b lacks, or -1.
func firstNotIn(a, b graph.Bitset) int {
	for i, w := range a {
		if w &^= b[i]; w != 0 {
			return 64*i + bits.TrailingZeros64(w)
		}
	}
	return -1
}
