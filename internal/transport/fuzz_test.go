package transport

import (
	"bytes"
	"testing"
)

// FuzzReadFrame asserts the frame decoder never panics or over-allocates
// on arbitrary byte streams, and that every frame it accepts re-encodes
// to the same bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, Frame{Type: TypeHello, Payload: claimPayload([]int{7})})
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0, 0, 1, TypeStop})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	// The protocol's frames: a two-vertex hello, a welcome, bit frames
	// (one with a padding bit set) and an outcome for two vertices.
	for _, fr := range []Frame{
		{Type: TypeHello, Payload: claimPayload([]int{3, 64})},
		{Type: TypeWelcome, Payload: []byte{0, 0, 0, 9, 0, 0, 0, 2}},
		{Type: TypeBeep, Payload: []byte{0x01}},
		{Type: TypeHeard, Payload: []byte{0xFF, 0x80}},
		{Type: TypeJoin, Payload: []byte{0x02}},
		{Type: TypeOutcome, Payload: []byte{1, 3 | neighborJoinedFlag}},
		{Type: TypeStop, Payload: []byte{2, 3 | neighborJoinedFlag}},
	} {
		var buf bytes.Buffer
		_ = WriteFrame(&buf, fr)
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		frame, err := ReadFrame(r)
		if err != nil {
			return
		}
		consumed := len(data) - r.Len()
		var buf bytes.Buffer
		if err := WriteFrame(&buf, frame); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:consumed]) {
			t.Fatalf("re-encode differs: %x vs %x", buf.Bytes(), data[:consumed])
		}
	})
}
