package provquery

import (
	"bytes"
	"testing"

	"repro/internal/algebra"
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

// ringCase pairs a semiring UDF with its representation's hop decoder.
type ringCase struct {
	u       UDF
	decodes func([]byte) bool
}

func ringCaseOf[T any](u UDF) ringCase {
	r := u.(*ringUDF[T])
	return ringCase{u, func(b []byte) bool {
		_, ok := r.open().Decode(b)
		return ok
	}}
}

// splitKids cuts data into children, each a length byte and that many bytes
// (fewer at the end).
func splitKids(data []byte) [][]byte {
	var kids [][]byte
	for len(data) > 0 {
		n := min(int(data[0]), len(data)-1)
		kids, data = append(kids, data[1:1+n]), data[1+n:]
	}
	return kids
}

// FuzzRingUDF feeds arbitrary children — another hop's answers, as a
// hostile or broken node may send them — to IDB, Rule and Exceeds of the four
// semiring UDFs. Properties: no panic, and every payload a UDF emits is
// accepted by its own representation's decoder, so a hop never forwards what
// the next hop would reject and zero.
func FuzzRingUDF(f *testing.F) {
	cases := []ringCase{
		ringCaseOf[int64](Derivations()),
		ringCaseOf[[]types.NodeID](NodeSet()),
		ringCaseOf[bool](Derivability(nil)),
		ringCaseOf[algebra.Payload](BDD(ownerVars())),
	}
	t1 := types.NewTuple("link", types.Node(0), types.Node(2), types.Int(5))
	t2 := types.NewTuple("link", types.Node(1), types.Node(0), types.Int(3))
	for _, c := range cases {
		var seed []byte
		for _, kid := range [][]byte{c.u.EDB(t1, t1.VID(), 0), c.u.EDB(t2, t2.VID(), 1), c.u.IDB(nil, types.ZeroID, 0)} {
			seed = append(append(seed, byte(len(kid))), kid...)
		}
		f.Add(seed, int64(1))
	}
	f.Add([]byte{5, 1, 2, 3, 4, 5}, int64(0))
	f.Fuzz(func(t *testing.T, data []byte, threshold int64) {
		kids := splitKids(data)
		for _, c := range cases {
			for _, out := range [][]byte{c.u.IDB(kids, types.ZeroID, 0), c.u.Rule(kids, "r", 0)} {
				if !c.decodes(out) {
					t.Fatalf("%s emitted %x, which its decoder rejects (children %x)", c.u.Name(), out, kids)
				}
			}
			c.u.Exceeds(CtxIDB, kids, threshold)
			c.u.Exceeds(CtxRule, kids, threshold)
		}
	})
}

// TestDecodeNodeSetTotal: the client's NODESET decoder is total — every
// byte string decodes (whole 4-byte groups, a ragged tail ignored) into at
// most len/4 entries, so a hostile payload can neither fail nor over-allocate.
// A combining hop is stricter: a ragged or unsorted child zeroes its answer.
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
