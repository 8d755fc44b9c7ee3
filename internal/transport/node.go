package transport

import (
	"fmt"
	"net"
	"time"

	"beepmis/internal/beep"
	"beepmis/internal/rng"
)

// NodeOptions configures RunNode.
type NodeOptions struct {
	// IOTimeout bounds each round's network operations; 0 means
	// DefaultIOTimeout.
	IOTimeout time.Duration
}

// NodeResult is a single vertex's view of a finished distributed run.
type NodeResult struct {
	// InMIS reports whether this vertex joined the independent set.
	InMIS bool
	// State is the vertex's final lifecycle state.
	State beep.State
	// Rounds is the number of time steps this vertex participated in.
	Rounds int
	// Beeps is the number of first-exchange beeps this vertex emitted.
	Beeps int
}

// RunNode dials the coordinator at addr, claims vertexID, and runs
// factory's automaton for that vertex until the coordinator broadcasts
// stop. Randomness is drawn from src, which should be the per-vertex
// stream master.Stream(vertexID) to make a distributed run reproduce the
// simulator's execution.
func RunNode(addr string, vertexID int, factory beep.Factory, src *rng.Source, opts NodeOptions) (*NodeResult, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("node dial: %w", err)
	}
	defer func() { _ = raw.Close() }()
	return runNode(raw, vertexID, factory, src, opts)
}

// runNode runs vertexID's side of the protocol on an open connection to
// the coordinator: the handshake, then one time step per round frame
// until stop. The caller owns raw and closes it.
func runNode(raw net.Conn, vertexID int, factory beep.Factory, src *rng.Source, opts NodeOptions) (*NodeResult, error) {
	timeout := opts.IOTimeout
	if timeout <= 0 {
		timeout = DefaultIOTimeout
	}
	_ = raw.SetDeadline(time.Now().Add(timeout))
	fc := NewConn(raw)

	if err := fc.Send(Frame{Type: TypeHello, Payload: u32Payload(uint32(vertexID))}); err != nil {
		return nil, fmt.Errorf("node hello: %w", err)
	}
	welcome, err := fc.Recv()
	if err != nil {
		return nil, fmt.Errorf("node welcome: %w", err)
	}
	if welcome.Type == TypeReject {
		return nil, fmt.Errorf("transport: coordinator rejected vertex %d: %s", vertexID, welcome.Payload)
	}
	if welcome.Type != TypeWelcome {
		return nil, fmt.Errorf("%w: got type %d awaiting welcome", ErrBadFrame, welcome.Type)
	}
	vals, err := payloadU32s(welcome, 3)
	if err != nil {
		return nil, fmt.Errorf("node welcome: %w", err)
	}
	info := beep.NodeInfo{
		ID:        vertexID,
		N:         int(vals[0]),
		Degree:    int(vals[1]),
		MaxDegree: int(vals[2]),
	}
	auto := factory(info)

	res := &NodeResult{State: beep.StateActive}
	for {
		_ = raw.SetDeadline(time.Now().Add(timeout))
		f, err := fc.Recv()
		if err != nil {
			return nil, fmt.Errorf("node recv: %w", err)
		}
		switch f.Type {
		case TypeStop:
			res.InMIS = res.State == beep.StateInMIS
			return res, nil
		case TypeRound:
			if _, err := payloadU32s(f, 1); err != nil {
				return nil, fmt.Errorf("node round: %w", err)
			}
		default:
			return nil, fmt.Errorf("%w: unexpected type %d awaiting round", ErrBadFrame, f.Type)
		}
		res.Rounds++

		beeped := false
		if res.State == beep.StateActive {
			beeped = auto.Beep(src)
		}
		if beeped {
			res.Beeps++
		}
		if err := fc.Send(Frame{Type: TypeBeep, Payload: boolByte(beeped)}); err != nil {
			return nil, fmt.Errorf("node beep: %w", err)
		}
		heardFrame, err := fc.Expect(TypeHeard)
		if err != nil {
			return nil, fmt.Errorf("node heard: %w", err)
		}
		heard, err := payloadBool(heardFrame)
		if err != nil {
			return nil, fmt.Errorf("node heard: %w", err)
		}

		join := res.State == beep.StateActive && beeped && !heard
		if err := fc.Send(Frame{Type: TypeJoin, Payload: boolByte(join)}); err != nil {
			return nil, fmt.Errorf("node join: %w", err)
		}
		outcome, err := fc.Expect(TypeOutcome)
		if err != nil {
			return nil, fmt.Errorf("node outcome: %w", err)
		}
		if len(outcome.Payload) != 2 {
			return nil, fmt.Errorf("%w: outcome payload %d bytes", ErrBadFrame, len(outcome.Payload))
		}
		// The node knows its own join bit, so the neighbour-joined bit
		// alone fixes its next state; a state byte that disagrees is a
		// corrupt or hostile frame, not a transition to take.
		neighborJoined := outcome.Payload[1] != 0
		next := nextState(res.State, join, neighborJoined)
		if got := beep.State(outcome.Payload[0]); got != next {
			return nil, fmt.Errorf("%w: outcome state %v, the node's own step gives %v", ErrBadFrame, got, next)
		}
		if next == beep.StateActive {
			auto.Observe(beep.Outcome{Beeped: beeped, Heard: heard, NeighborJoined: neighborJoined})
		}
		res.State = next
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
