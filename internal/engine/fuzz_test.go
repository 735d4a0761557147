package engine

import (
	"bytes"
	"testing"

	"repro/internal/types"
)

// hugePayloadLen is the uvarint encoding of 2^64-1 — as an int, -1. Appended
// as the payload length of an otherwise valid message it passed the decoder's
// old signed bounds check and panicked in make: one datagram killed a
// deployed node, whose receive loop feeds raw UDP payloads into DecodeMessage.
var hugePayloadLen = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}

// hostilePayloadMessage is a valid payload-free message with the payload flag
// forced on and hugePayloadLen where the length belongs.
func hostilePayloadMessage() []byte {
	b := (&Message{Tuple: types.NewTuple("p", types.Node(1), types.Int(2)), Delta: Insert,
		HasRef: true, RID: types.HashString("r"), RLoc: 7}).Encode(nil)
	b[0] |= flagPayload
	return append(b, hugePayloadLen...)
}

func TestDecodeMessageRejectsHugePayloadLength(t *testing.T) {
	if m, err := DecodeMessage(hostilePayloadMessage()); err == nil {
		t.Fatalf("payload length 2^64-1 accepted: %+v", m)
	}
	// One byte short of the declared length is still malformed; the exact
	// length decodes.
	b := (&Message{Tuple: types.NewTuple("p", types.Node(1)), Delta: Insert, Payload: []byte{1, 2, 3}}).Encode(nil)
	if _, err := DecodeMessage(b[:len(b)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := DecodeMessage(b); err != nil {
		t.Fatalf("exact-length payload rejected: %v", err)
	}
}

// FuzzDecodeMessage feeds arbitrary bytes to the decoder behind the engine's
// UDP port. Properties:
//
//  1. No panic on any input (truncated, malformed, hostile).
//  2. A successful decode re-encodes to exactly WireSize() bytes, and those
//     bytes decode to an equal message. (The input itself need not be
//     reproduced: the decoder ignores trailing bytes and unknown flag bits.)
func FuzzDecodeMessage(f *testing.F) {
	seeds := []*Message{
		{Tuple: types.NewTuple("p", types.Node(1), types.Int(2)), Delta: Insert},
		{Tuple: types.NewTuple("pathCost", types.Node(1), types.Node(2), types.Int(5)), Delta: Delete,
			HasRef: true, RID: types.HashString("r"), RLoc: 7},
		{Tuple: types.NewTuple("q", types.Node(0), types.Str("x")), Delta: Update,
			HasRef: true, RID: types.HashString("s"), RLoc: 1, Payload: []byte{1, 2, 3, 4}},
		{Tuple: types.NewTuple("ruleExec", types.Node(2), types.IDVal(types.HashString("r")), types.Str("sp2"),
			types.List(types.IDVal(types.HashString("a")), types.IDVal(types.HashString("b")))), Delta: Insert, Payload: []byte{}},
	}
	for _, m := range seeds {
		f.Add(m.Encode(nil))
	}
	f.Add([]byte{})
	f.Add(hostilePayloadMessage())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMessage(b)
		if err != nil {
			return
		}
		re := m.Encode(nil)
		if len(re) != m.WireSize() {
			t.Fatalf("re-encode is %d bytes, WireSize %d, for %s", len(re), m.WireSize(), m)
		}
		m2, err := DecodeMessage(re)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", m, err)
		}
		if !m2.Tuple.Equal(m.Tuple) || m2.Delta != m.Delta || m2.HasRef != m.HasRef ||
			m2.RID != m.RID || m2.RLoc != m.RLoc ||
			(m2.Payload == nil) != (m.Payload == nil) || !bytes.Equal(m2.Payload, m.Payload) {
			t.Fatalf("re-decode mismatch: %+v vs %+v", m2, m)
		}
	})
}
