package types

import (
	"bytes"
	"testing"
)

// FuzzDecodeValue feeds arbitrary bytes through the wire-format decoder and
// pins the two properties the stack depends on (docs/wire-format.md):
//
//  1. No panic on any input (truncated, malformed, hostile).
//  2. Canonical re-encode: any successfully decoded value re-encodes to
//     exactly the bytes that were consumed, and WireSize matches. This is
//     the round-trip half of the "wire encoding unchanged" acceptance
//     criterion — the interning layer must be invisible in the byte stream.
//
// Run with `go test -fuzz FuzzDecodeValue ./internal/types` to explore; the
// seed corpus covers every kind.
func FuzzDecodeValue(f *testing.F) {
	seeds := []Value{
		Nil(), Bool(true), Int(-9), Str("seed"), Node(12),
		IDVal(HashString("seed")),
		List(Int(1), Str("x"), List(Node(2), Nil())),
		Prov([]byte{1, 2, 3}),
	}
	for _, v := range seeds {
		f.Add(v.Encode(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{6, 0xff, 0xff, 0xff, 0xff, 0x0f}) // huge list count
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, err := DecodeValue(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(b))
		}
		re := v.Encode(nil)
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("re-encode mismatch: decoded %s from %v, re-encoded %v", v, b[:n], re)
		}
		if v.WireSize() != n {
			t.Fatalf("WireSize %d != consumed %d for %s", v.WireSize(), n, v)
		}
	})
}

// FuzzDecodeTuple is the tuple-level analogue of FuzzDecodeValue.
func FuzzDecodeTuple(f *testing.F) {
	t1 := NewTuple("link", Node(0), Node(1), Int(3))
	t2 := NewTuple("ruleExec", Node(2), IDVal(HashString("r")), Str("sp2"),
		List(IDVal(HashString("a")), IDVal(HashString("b"))))
	f.Add(t1.Encode(nil))
	f.Add(t2.Encode(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		tu, n, err := DecodeTuple(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(b))
		}
		re := tu.Encode(nil)
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("tuple re-encode mismatch for %s", tu)
		}
		if tu.WireSize() != n {
			t.Fatalf("WireSize %d != consumed %d for %s", tu.WireSize(), n, tu)
		}
	})
}
