package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

// NodeOptions configures RunNode.
type NodeOptions struct {
	// IOTimeout bounds each round's network operations; 0 means
	// DefaultIOTimeout.
	IOTimeout time.Duration
}

// NodeResult is a node process's view of a finished distributed run. Its
// slices are indexed like the vertices RunNode claimed.
type NodeResult struct {
	// States is each vertex's final lifecycle state.
	States []beep.State
	// Beeps counts each vertex's first-exchange beeps.
	Beeps []int
	// Rounds is the number of time steps the run took.
	Rounds int
}

// RunNode dials the coordinator at addr, claims vertices (1 to MaxClaim
// distinct ids), and runs factory's automaton for each of them until the
// coordinator stops the run. Vertex v draws its randomness from
// master.Stream(v), so a distributed run reproduces the simulator's
// execution.
func RunNode(addr string, vertices []int, factory beep.Factory, master *rng.Source, opts NodeOptions) (*NodeResult, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("node dial: %w", err)
	}
	defer func() { _ = raw.Close() }()
	return runNode(raw, vertices, factory, master, opts)
}

// runNode runs the vertices' side of the protocol on an open connection
// to the coordinator: the handshake, then one time step per welcome or
// outcome frame until stop. The caller owns raw and closes it.
func runNode(raw net.Conn, vertices []int, factory beep.Factory, master *rng.Source, opts NodeOptions) (*NodeResult, error) {
	timeout := opts.IOTimeout
	if timeout <= 0 {
		timeout = DefaultIOTimeout
	}
	_ = raw.SetDeadline(time.Now().Add(timeout))
	fc := NewConn(raw)

	if err := fc.Send(Frame{Type: TypeHello, Payload: claimPayload(vertices)}); err != nil {
		return nil, fmt.Errorf("node hello: %w", err)
	}
	welcome, err := fc.Recv()
	if err != nil {
		return nil, fmt.Errorf("node welcome: %w", err)
	}
	if welcome.Type == TypeReject {
		return nil, fmt.Errorf("transport: coordinator rejected the hello: %s", welcome.Payload)
	}
	if welcome.Type != TypeWelcome || len(welcome.Payload) != 8 {
		return nil, fmt.Errorf("%w: type %d with %d payload bytes awaiting welcome", ErrBadFrame, welcome.Type, len(welcome.Payload))
	}
	n := int(binary.BigEndian.Uint32(welcome.Payload))
	maxDeg := int(binary.BigEndian.Uint32(welcome.Payload[4:]))

	k := len(vertices)
	res := &NodeResult{States: make([]beep.State, k), Beeps: make([]int, k)}
	autos := make([]beep.Automaton, k)
	streams := make([]rng.Source, k)
	for i, v := range vertices {
		autos[i] = factory(beep.NodeInfo{ID: v, N: n, MaxDegree: maxDeg})
		master.StreamInto(&streams[i], uint64(v))
		res.States[i] = beep.StateActive
	}
	// Indexed by claim position, not vertex id.
	beeped, heard, joined := graph.NewBitset(k), graph.NewBitset(k), graph.NewBitset(k)
	bits := make([]byte, (k+7)/8) // the outgoing bit field, sent before it is rebuilt
	for {
		_ = raw.SetDeadline(time.Now().Add(timeout))
		res.Rounds++
		beeped.Zero()
		for i, a := range autos {
			if res.States[i] == beep.StateActive && a.Beep(&streams[i]) {
				beeped.Set(i)
				res.Beeps[i]++
			}
		}
		if err := fc.Send(Frame{Type: TypeBeep, Payload: bitsPayload(bits, k, beeped.Test)}); err != nil {
			return nil, fmt.Errorf("node beep: %w", err)
		}
		f, err := fc.Expect(TypeHeard)
		if err == nil {
			heard.Zero()
			err = payloadBits(f, k, heard.Set)
		}
		if err != nil {
			return nil, fmt.Errorf("node heard: %w", err)
		}

		// A vertex that beeped was active; it joins if it heard nothing.
		copy(joined, beeped)
		joined.AndNot(heard)
		if err := fc.Send(Frame{Type: TypeJoin, Payload: bitsPayload(bits, k, joined.Test)}); err != nil {
			return nil, fmt.Errorf("node join: %w", err)
		}
		outcome, err := fc.Recv()
		if err != nil {
			return nil, fmt.Errorf("node outcome: %w", err)
		}
		if outcome.Type != TypeOutcome && outcome.Type != TypeStop || len(outcome.Payload) != k {
			return nil, fmt.Errorf("%w: type %d with %d payload bytes awaiting an outcome for %d vertices", ErrBadFrame, outcome.Type, len(outcome.Payload), k)
		}
		for i, b := range outcome.Payload {
			// The node knows its own join bit, so the neighbour-joined
			// flag alone fixes its next state; a state code that
			// disagrees is a corrupt or hostile frame, not a transition
			// to take.
			neighborJoined := b&neighborJoinedFlag != 0
			next := nextState(res.States[i], joined.Test(i), neighborJoined)
			if got := beep.State(b &^ neighborJoinedFlag); got != next {
				return nil, fmt.Errorf("%w: vertex %d: outcome state %v, the node's own step gives %v", ErrBadFrame, vertices[i], got, next)
			}
			if next == beep.StateActive {
				autos[i].Observe(beep.Outcome{Beeped: beeped.Test(i), Heard: heard.Test(i), NeighborJoined: neighborJoined})
			}
			res.States[i] = next
		}
		if outcome.Type == TypeStop {
			return res, nil
		}
	}
}

// nextState is a vertex's state after a time step, which the coordinator
// announces and the node checks: an active vertex that joined enters the
// set, an active one with a joined neighbour is dominated, and any other
// state stands.
func nextState(st beep.State, joined, neighborJoined bool) beep.State {
	if st != beep.StateActive {
		return st
	}
	switch {
	case joined:
		return beep.StateInMIS
	case neighborJoined:
		return beep.StateDominated
	}
	return st
}
