package provquery

import (
	"bytes"
	"testing"

	"repro/internal/types"
)

// hostileResultMsg is a valid KProvResult header followed by the uvarint
// encoding of 2^64-1 as its payload length — as an int, -1, which passed the
// decoder's old signed bounds check and panicked in make. A deployed node's
// receive loop feeds raw UDP payloads into DecodeMsg.
func hostileResultMsg() []byte {
	b := (&Msg{Kind: KProvResult, QID: types.HashString("q"), VID: types.HashString("v"), Ret: 2}).Encode(nil)
	b = b[:len(b)-1] // drop the zero payload length
	return append(b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
}

func TestDecodeMsgRejectsHugePayloadLength(t *testing.T) {
	if m, err := DecodeMsg(hostileResultMsg()); err == nil {
		t.Fatalf("payload length 2^64-1 accepted: %+v", m)
	}
	// One byte short of the declared length is still malformed; the exact
	// length decodes.
	b := (&Msg{Kind: KRuleResult, QID: types.HashString("q"), RID: types.HashString("r"), Payload: []byte{9, 8, 7}}).Encode(nil)
	if _, err := DecodeMsg(b[:len(b)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := DecodeMsg(b); err != nil {
		t.Fatalf("exact-length payload rejected: %v", err)
	}
}

// FuzzDecodeMsg feeds arbitrary bytes to the decoder behind the query
// processor's UDP port. Properties:
//
//  1. No panic on any input (truncated, malformed, hostile).
//  2. A successful decode re-encodes to exactly WireSize() bytes, and those
//     bytes decode to an equal message. (The input itself need not be
//     reproduced: the decoder ignores trailing bytes.)
func FuzzDecodeMsg(f *testing.F) {
	seeds := []*Msg{
		{Kind: KProvQuery, QID: types.HashString("q"), VID: types.HashString("v"), Ret: 3},
		{Kind: KRuleQuery, QID: types.HashString("q"), RID: types.HashString("r"), VID: types.HashString("h"), Ret: 1},
		{Kind: KProvResult, QID: types.HashString("q"), VID: types.HashString("v"), Ret: 2, Payload: []byte{9, 8}},
		{Kind: KRuleResult, QID: types.HashString("q"), RID: types.HashString("r"), Ret: 0, Payload: []byte{}},
		{Kind: KInvalidate, VID: types.HashString("v")},
	}
	for _, m := range seeds {
		f.Add(m.Encode(nil))
	}
	f.Add([]byte{})
	f.Add(hostileResultMsg())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMsg(b)
		if err != nil {
			return
		}
		re := m.Encode(nil)
		if len(re) != m.WireSize() {
			t.Fatalf("kind %d: re-encode is %d bytes, WireSize %d", m.Kind, len(re), m.WireSize())
		}
		m2, err := DecodeMsg(re)
		if err != nil {
			t.Fatalf("kind %d: re-encoded message does not decode: %v", m.Kind, err)
		}
		if m2.Kind != m.Kind || m2.QID != m.QID || m2.VID != m.VID || m2.RID != m.RID ||
			m2.Ret != m.Ret || !bytes.Equal(m2.Payload, m.Payload) {
			t.Fatalf("re-decode mismatch: %+v vs %+v", m2, m)
		}
	})
}

// TestDecodeNodeSetTotal: the NODESET payload needs no fuzz target — every
// byte string decodes (whole 4-byte groups, a ragged tail ignored) into at
// most len/4 entries, so a hostile payload can neither fail nor over-allocate.
func TestDecodeNodeSetTotal(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		want    []types.NodeID
	}{
		{"nil", nil, nil},
		{"empty", []byte{}, nil},
		{"short", []byte{0, 0, 1}, nil},
		{"one", []byte{0, 0, 0, 7}, []types.NodeID{7}},
		{"negative", []byte{0xff, 0xff, 0xff, 0xff}, []types.NodeID{-1}},
		{"ragged tail", []byte{0, 0, 0, 1, 0, 0, 0, 2, 9, 9}, []types.NodeID{1, 2}},
	} {
		got := DecodeNodeSet(tc.payload)
		if len(got) != len(tc.want) || cap(got) > len(tc.payload)/4 {
			t.Errorf("%s: got %v (cap %d), want %v within %d entries", tc.name, got, cap(got), tc.want, len(tc.payload)/4)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}
