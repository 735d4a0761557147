package types

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomValue generates an arbitrary value of bounded depth for property
// tests, covering every kind including interned provenance payloads.
func randomValue(rng *rand.Rand, depth int) Value {
	k := rng.Intn(8)
	if depth <= 0 && k >= 7 { // lists recurse; cap them at the depth bound
		k = rng.Intn(7)
	}
	switch k {
	case 0:
		return Nil()
	case 1:
		return Bool(rng.Intn(2) == 0)
	case 2:
		return Int(rng.Int63() - rng.Int63())
	case 3:
		b := make([]byte, rng.Intn(20))
		rng.Read(b)
		return Str(string(b))
	case 4:
		return Node(NodeID(rng.Int31n(1000)))
	case 5:
		var id ID
		rng.Read(id[:])
		return IDVal(id)
	case 6:
		b := make([]byte, rng.Intn(16))
		rng.Read(b)
		return Prov(b)
	default:
		n := rng.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(rng, depth-1)
		}
		return List(elems...)
	}
}

// Generate implements quick.Generator.
func (Value) Generate(rng *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(randomValue(rng, 3))
}

func TestValueEncodeRoundTrip(t *testing.T) {
	f := func(v Value) bool {
		enc := v.Encode(nil)
		if len(enc) != v.WireSize() {
			t.Logf("wire size %d != encoded length %d for %s", v.WireSize(), len(enc), v)
			return false
		}
		dec, n, err := DecodeValue(enc)
		if err != nil || n != len(enc) {
			t.Logf("decode %s: n=%d err=%v", v, n, err)
			return false
		}
		return dec.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestValueEncodingInjective(t *testing.T) {
	f := func(a, b Value) bool {
		ea, eb := string(a.Encode(nil)), string(b.Encode(nil))
		return (ea == eb) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestValueCompareIsTotalOrder(t *testing.T) {
	f := func(a, b, c Value) bool {
		// Antisymmetry.
		if a.Compare(b) < 0 && b.Compare(a) < 0 {
			return false
		}
		// Consistency with Equal.
		if (a.Compare(b) == 0) != a.Equal(b) {
			return false
		}
		// Transitivity (on this triple).
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTupleEncodeRoundTrip(t *testing.T) {
	f := func(a, b, c Value) bool {
		tu := NewTuple("pred", a, b, c)
		enc := tu.Encode(nil)
		if len(enc) != tu.WireSize() {
			return false
		}
		dec, n, err := DecodeTuple(enc)
		return err == nil && n == len(enc) && dec.Equal(tu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestVIDDeterminism(t *testing.T) {
	t1 := NewTuple("pathCost", Node(0), Node(2), Int(5))
	t2 := NewTuple("pathCost", Node(0), Node(2), Int(5))
	if t1.VID() != t2.VID() {
		t.Error("identical tuples have different VIDs")
	}
	t3 := NewTuple("pathCost", Node(0), Node(2), Int(6))
	if t1.VID() == t3.VID() {
		t.Error("different tuples share a VID")
	}
	t4 := NewTuple("bestPathCost", Node(0), Node(2), Int(5))
	if t1.VID() == t4.VID() {
		t.Error("different predicates share a VID")
	}
}

func TestRuleExecIDSensitivity(t *testing.T) {
	in1 := []ID{HashString("a"), HashString("b")}
	in2 := []ID{HashString("b"), HashString("a")}
	if RuleExecID("sp2", 1, in1) == RuleExecID("sp2", 1, in2) {
		t.Error("RID insensitive to input order")
	}
	if RuleExecID("sp2", 1, in1) == RuleExecID("sp2", 2, in1) {
		t.Error("RID insensitive to location")
	}
	if RuleExecID("sp2", 1, in1) == RuleExecID("sp1", 1, in1) {
		t.Error("RID insensitive to rule label")
	}
}

func TestTupleString(t *testing.T) {
	tu := NewTuple("bestPathCost", Node(0), Node(2), Int(5))
	if got := tu.String(); got != "bestPathCost(@a,c,5)" {
		t.Errorf("String = %q, want bestPathCost(@a,c,5)", got)
	}
	ev := NewTuple("ePacket", Node(27), Str("x"))
	if got := ev.String(); got != "ePacket(@n27,x)" {
		t.Errorf("String = %q", got)
	}
}

func TestNodeIDString(t *testing.T) {
	if NodeID(0).String() != "a" || NodeID(25).String() != "z" {
		t.Error("letter rendering broken")
	}
	if NodeID(26).String() != "n26" {
		t.Error("numeric rendering broken")
	}
}

func TestValueAccessorsOnWrongKind(t *testing.T) {
	v := Str("hello")
	if v.AsInt() != 0 || v.AsNode() != -1 || !v.AsID().IsZero() || v.AsList() != nil || v.AsBool() {
		t.Error("wrong-kind accessors should return zero values")
	}
	if Nil().Truthy() {
		t.Error("nil is not truthy")
	}
	if !Int(1).Truthy() || Int(0).Truthy() {
		t.Error("int truthiness broken")
	}
}

func TestDecodeTruncated(t *testing.T) {
	vals := []Value{Int(7), Str("abc"), List(Int(1), Str("x")), IDVal(HashString("q"))}
	for _, v := range vals {
		enc := v.Encode(nil)
		for cut := 0; cut < len(enc); cut++ {
			if dec, n, err := DecodeValue(enc[:cut]); err == nil && n == len(enc) {
				t.Errorf("decode of truncated %s (%d/%d bytes) succeeded as %s", v, cut, len(enc), dec)
			}
		}
	}
}

func TestOpaquePayload(t *testing.T) {
	v := Prov([]byte{1, 2, 3})
	if got := v.String(); got != "opaque[3B]" {
		t.Errorf("String = %q, want opaque[3B]", got)
	}
	enc := v.Encode(nil)
	if len(enc) != v.WireSize() {
		t.Error("prov wire size mismatch")
	}
	dec, _, err := DecodeValue(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(v) {
		t.Error("prov round trip failed")
	}
}
