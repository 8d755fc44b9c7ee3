// Package transport provides a framed binary wire protocol and the
// coordinator/node roles that run the beeping MIS algorithms as message
// passing: across processes over TCP (NewCoordinator, RunNode, and
// cmd/misnode), or in one process over in-memory net.Pipe connections
// (RunInProcess, behind beepmis.WithConcurrentEngine). Both run the same
// handshake, round loop and node loop.
//
// Topology and round synchronisation live in a coordinator: it knows the
// graph, accepts one connection per node process, each claiming a set of
// vertices, and per time step relays "did any neighbour beep" / "did any
// neighbour join" bits — exactly the information the beeping model
// grants a node — computed by the simulator's own exchange. All
// algorithmic state and randomness stay at the nodes, so the coordinator
// is a stand-in for the shared beeping medium of Afek et al. (DISC 2011),
// not for the algorithm. Each vertex draws from master.Stream(vertex),
// the stream the simulator gives it, so a run reproduces internal/sim's
// execution bit for bit.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"beepmis/internal/graph"
)

// MaxFrameSize bounds accepted frame payloads; anything larger indicates
// a corrupt or hostile peer.
const MaxFrameSize = 1 << 20

// MaxClaim bounds the vertices one hello may claim, so a hello is at
// most 256 KiB; a larger deployment splits across node processes.
const MaxClaim = 1 << 16

// Frame type identifiers. A node's hello claims k vertices; every later
// frame's payload then carries one bit (or, for an outcome, one byte) per
// claimed vertex, in claim order. Bit fields pack the i-th vertex's bit
// as bit i%8 of byte i/8 and leave the padding bits of the last byte
// clear. A time step is four frames per connection: beep, heard, join,
// and an outcome that also starts the next step. The heard bit and the
// neighbour-joined flag of a vertex that was not active at the step's
// start carry no meaning.
const (
	// TypeHello is sent by a node to claim its vertices. Payload: 1 to
	// MaxClaim big-endian uint32 vertex ids.
	TypeHello uint8 = iota + 1
	// TypeWelcome is the coordinator's reply to a hello, and starts
	// round 1. Payload: uint32 n, uint32 max degree.
	TypeWelcome
	// TypeBeep carries a node's first-exchange bits.
	TypeBeep
	// TypeHeard carries the coordinator's "some neighbour beeped" bits.
	TypeHeard
	// TypeJoin carries a node's second-exchange announcement bits.
	TypeJoin
	// TypeOutcome carries the coordinator's end-of-step verdict and
	// starts the next round. Payload: one byte per vertex, its state code
	// (see beep.State), with neighborJoinedFlag set when a neighbour
	// joined.
	TypeOutcome
	// TypeStop is the outcome of the last round, and ends the protocol.
	// Payload: as TypeOutcome.
	TypeStop
	// TypeReject is the coordinator's refusal of a hello — a vertex id
	// was out of range or already claimed, or the claim was malformed.
	// Payload: UTF-8 reason. Sent best-effort before the coordinator
	// closes the connection, so the misconfigured node process reports
	// the actual problem instead of an opaque EOF.
	TypeReject
)

// neighborJoinedFlag marks an outcome byte whose vertex has a neighbour
// that joined the set this step.
const neighborJoinedFlag = 1 << 7

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
func WriteFrame(w io.Writer, f Frame) error { return writeFrame(w, new([5]byte), f) }

// writeFrame is WriteFrame with the header assembled in hdr.
func writeFrame(w io.Writer, hdr *[5]byte, f Frame) error {
	if len(f.Payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(f.Payload))
	}
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

// ReadFrame reads one frame from r into a fresh payload.
func ReadFrame(r io.Reader) (Frame, error) {
	return readFrame(r, new([5]byte), nil)
}

// readFrame is ReadFrame with the header read into hdr and the payload
// into buf, or into a fresh slice when buf is too small.
func readFrame(r io.Reader, hdr *[5]byte, buf []byte) (Frame, error) {
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
		if cap(buf) < int(length-1) {
			buf = make([]byte, length-1)
		}
		f.Payload = buf[:length-1]
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("read frame payload: %w", err)
		}
	}
	return f, nil
}

// Conn wraps an io.ReadWriter with buffering and frame helpers. It is not
// safe for concurrent use. A received payload lives in a buffer the
// Conn reuses, so it is valid only until the Conn's next receive.
type Conn struct {
	r   *bufio.Reader
	w   *bufio.Writer
	hdr [5]byte
	buf []byte
}

// NewConn wraps rw.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{r: bufio.NewReader(rw), w: bufio.NewWriter(rw)}
}

// Send writes a frame and flushes it.
func (c *Conn) Send(f Frame) error {
	if err := writeFrame(c.w, &c.hdr, f); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("flush frame: %w", err)
	}
	return nil
}

// Recv reads the next frame. Its payload is valid until the next Recv
// or Expect.
func (c *Conn) Recv() (Frame, error) {
	f, err := readFrame(c.r, &c.hdr, c.buf)
	if cap(f.Payload) > cap(c.buf) {
		c.buf = f.Payload
	}
	return f, err
}

// Expect reads the next frame and checks its type. Its payload is
// valid until the next Recv or Expect.
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

// bitsPayload packs one bit per claimed vertex into buf, whose capacity
// must be at least (k+7)/8 bytes: bit i is has(i).
func bitsPayload(buf []byte, k int, has func(i int) bool) []byte {
	buf = buf[:(k+7)/8]
	clear(buf)
	for i := range k {
		if has(i) {
			buf[i/8] |= 1 << (i % 8)
		}
	}
	return buf
}

// payloadBits calls set(i) for each bit i set in f, a frame of one bit
// per claimed vertex, after checking its length and that its padding
// bits are clear.
func payloadBits(f Frame, k int, set func(i int)) error {
	if len(f.Payload) != (k+7)/8 || k%8 != 0 && f.Payload[k/8]>>(k%8) != 0 {
		return fmt.Errorf("%w: %d payload bytes for %d bits, or padding bits set", ErrBadFrame, len(f.Payload), k)
	}
	for i := range k {
		if f.Payload[i/8]>>(i%8)&1 != 0 {
			set(i)
		}
	}
	return nil
}

// claimPayload encodes a hello's claim.
func claimPayload(vertices []int) []byte {
	buf := make([]byte, 0, 4*len(vertices))
	for _, v := range vertices {
		buf = binary.BigEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// readClaim decodes a hello's claim, 1 to MaxClaim big-endian uint32
// vertex ids, each below n and not yet in claimed, and marks them
// claimed.
func readClaim(payload []byte, n int, claimed graph.Bitset) ([]int, error) {
	k := len(payload) / 4
	if len(payload)%4 != 0 || k < 1 || k > MaxClaim {
		return nil, fmt.Errorf("%w: hello of %d bytes, want 4 per vertex for 1 to %d vertices", ErrBadFrame, len(payload), MaxClaim)
	}
	claim := make([]int, k)
	for i := range claim {
		id := binary.BigEndian.Uint32(payload[4*i:])
		if int64(id) >= int64(n) {
			return nil, fmt.Errorf("%w: hello for vertex %d with n=%d", graph.ErrVertexRange, id, n)
		}
		v := int(id)
		if claimed.Test(v) {
			// Two node processes whose -vertices lists overlap land
			// here; the reject tells the second one why.
			return nil, fmt.Errorf("%w: vertex %d (a node process already hosts it — check -vertices lists for overlap)", ErrVertexClaimed, v)
		}
		claimed.Set(v)
		claim[i] = v
	}
	return claim, nil
}
