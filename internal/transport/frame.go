// Package transport provides a framed binary wire protocol and the
// coordinator/node roles that run the beeping MIS algorithms as message
// passing: across processes over TCP (NewCoordinator, RunNode, and
// cmd/misnode), or in one process over in-memory net.Pipe connections
// (RunInProcess, behind beepmis.WithConcurrentEngine). Both run the same
// handshake, round loop and node loop.
//
// Topology and round synchronisation live in a coordinator: it knows the
// graph, accepts one connection per vertex, and per time step relays
// "did any neighbour beep" / "did any neighbour join" bits — exactly the
// information the beeping model grants a node. All algorithmic state and
// randomness stay at the nodes, so the coordinator is a stand-in for the
// shared beeping medium of Afek et al. (DISC 2011), not for the
// algorithm. Each vertex draws from master.Stream(vertex), the stream the
// simulator gives it, so a run reproduces internal/sim's execution bit
// for bit.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrameSize bounds accepted frame payloads; anything larger indicates
// a corrupt or hostile peer.
const MaxFrameSize = 1 << 20

// Frame type identifiers.
const (
	// TypeHello is sent by a node to claim a vertex id. Payload:
	// uint32 vertex id.
	TypeHello uint8 = iota + 1
	// TypeWelcome is the coordinator's reply to a hello. Payload:
	// uint32 n, uint32 degree, uint32 max degree.
	TypeWelcome
	// TypeRound starts a time step. Payload: uint32 round number.
	TypeRound
	// TypeBeep carries a node's first-exchange bit. Payload: 1 byte
	// (0/1).
	TypeBeep
	// TypeHeard carries the coordinator's "some neighbour beeped" bit.
	// Payload: 1 byte.
	TypeHeard
	// TypeJoin carries a node's second-exchange announcement bit.
	// Payload: 1 byte.
	TypeJoin
	// TypeOutcome carries the coordinator's end-of-step verdict.
	// Payload: 1 byte state code (see beep.State), 1 byte
	// neighbour-joined bit.
	TypeOutcome
	// TypeStop ends the protocol. Payload: empty.
	TypeStop
	// TypeReject is the coordinator's refusal of a hello — the vertex
	// id was out of range or already claimed by another connection.
	// Payload: UTF-8 reason. Sent best-effort before the coordinator
	// closes the connection, so the misconfigured node process reports
	// the actual problem instead of an opaque EOF.
	TypeReject
)

// Errors matched by callers.
var (
	// ErrFrameTooLarge indicates a frame over MaxFrameSize.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrBadFrame indicates a structurally invalid frame for the
	// expected type.
	ErrBadFrame = errors.New("transport: malformed frame")
)

// Frame is one wire message.
type Frame struct {
	// Type is one of the Type* constants.
	Type uint8
	// Payload is the type-specific body.
	Payload []byte
}

// WriteFrame writes f to w as [uint32 length][uint8 type][payload], all
// big-endian. Length counts the type byte plus payload.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(f.Payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(f.Payload)+1))
	hdr[4] = f.Type
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("write frame header: %w", err)
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return fmt.Errorf("write frame payload: %w", err)
		}
	}
	return nil
}

// ReadFrame reads one frame from r.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, fmt.Errorf("read frame header: %w", err)
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	if length < 1 {
		return Frame{}, fmt.Errorf("%w: zero-length frame", ErrBadFrame)
	}
	if length-1 > MaxFrameSize {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, length-1)
	}
	f := Frame{Type: hdr[4]}
	if length > 1 {
		f.Payload = make([]byte, length-1)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("read frame payload: %w", err)
		}
	}
	return f, nil
}

// connBufferSize sizes each Conn's read and write buffers. Every frame
// but a reject is 5–17 bytes on the wire, so 64 bytes holds any of them
// whole; a longer frame passes through bufio in several reads or writes.
// A coordinator holds one Conn per vertex, so bufio's 4 KiB default
// would cost it 8 KiB per vertex.
const connBufferSize = 64

// Conn wraps an io.ReadWriter with buffering and frame helpers. It is not
// safe for concurrent use.
type Conn struct {
	r *bufio.Reader
	w *bufio.Writer
}

// NewConn wraps rw.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{r: bufio.NewReaderSize(rw, connBufferSize), w: bufio.NewWriterSize(rw, connBufferSize)}
}

// Send writes a frame and flushes it.
func (c *Conn) Send(f Frame) error {
	if err := WriteFrame(c.w, f); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("flush frame: %w", err)
	}
	return nil
}

// Recv reads the next frame.
func (c *Conn) Recv() (Frame, error) { return ReadFrame(c.r) }

// Expect reads the next frame and checks its type.
func (c *Conn) Expect(want uint8) (Frame, error) {
	f, err := c.Recv()
	if err != nil {
		return Frame{}, err
	}
	if f.Type != want {
		return Frame{}, fmt.Errorf("%w: got type %d, want %d", ErrBadFrame, f.Type, want)
	}
	return f, nil
}

// boolByte encodes a bool as a payload byte.
func boolByte(b bool) []byte {
	if b {
		return []byte{1}
	}
	return []byte{0}
}

// payloadBool decodes a 1-byte bool payload.
func payloadBool(f Frame) (bool, error) {
	if len(f.Payload) != 1 {
		return false, fmt.Errorf("%w: bool frame with %d payload bytes", ErrBadFrame, len(f.Payload))
	}
	return f.Payload[0] != 0, nil
}

// u32Payload encodes values as consecutive big-endian uint32s.
func u32Payload(vals ...uint32) []byte {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint32(buf[4*i:], v)
	}
	return buf
}

// payloadU32s decodes a payload of exactly count uint32s.
func payloadU32s(f Frame, count int) ([]uint32, error) {
	if len(f.Payload) != 4*count {
		return nil, fmt.Errorf("%w: expected %d uint32s, payload %d bytes", ErrBadFrame, count, len(f.Payload))
	}
	out := make([]uint32, count)
	for i := range out {
		out[i] = binary.BigEndian.Uint32(f.Payload[4*i:])
	}
	return out, nil
}
