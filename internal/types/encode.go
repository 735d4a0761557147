package types

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire format (specified normatively in docs/wire-format.md). Each value
// encodes as a one-byte kind tag followed by a kind-specific payload:
//
//	nil   -> tag
//	bool  -> tag + 1 byte
//	int   -> tag + 8 bytes big-endian
//	str   -> tag + uvarint length + bytes
//	node  -> tag + 4 bytes big-endian (an IPv4-sized address)
//	id    -> tag + 20 bytes
//	list  -> tag + uvarint count + elements
//	prov  -> tag + uvarint length + payload bytes
//
// The same encoding is used (a) on the simulated and real wire, (b) as the
// canonical input to SHA-1 when computing VIDs and RIDs. WireSize always
// equals len(Encode output).
//
// The interning layer never leaks into this format: encodings are payload
// content, byte-for-byte identical to the pre-interning representation, and
// interned entries simply memoize their encoding so emitting one is a copy.
// (Process-local handle keys for map lookups come from Value.AppendKey,
// which is deliberately a different, non-wire byte form.)

var (
	errTruncated    = errors.New("types: truncated value encoding")
	errNonCanonical = errors.New("types: non-canonical value encoding")
)

// ReadUvarint decodes a uvarint and additionally rejects non-minimal
// (over-long) encodings. The format doubles as SHA-1 input, so every byte
// string must have at most one decoding that re-encodes to itself —
// accepting redundant varint forms (or bool payloads other than 0/1) would
// break the decode→re-encode identity the fuzz tests pin. The query-result
// payload decoders (algebra, bdd) share the rule: hops forward the bytes
// they validated, so those bytes must be the only spelling of their value.
func ReadUvarint(b []byte) (uint64, int, bool) {
	v, sz := binary.Uvarint(b)
	if sz <= 0 || sz != UvarintLen(v) {
		return 0, 0, false
	}
	return v, sz, true
}

// encOf returns the cached canonical encoding of an interned value
// (including the kind tag). Only valid for interned kinds.
func (v Value) encOf() []byte {
	switch v.kind {
	case KindStr:
		return strTab.store.get(v.h).enc
	case KindID:
		return idTab.store.get(v.h).enc
	case KindList:
		return listTab.store.get(v.h).enc
	case KindProv:
		return provTab.store.get(v.h).enc
	}
	return nil
}

// WireSize reports the encoded size of the value in bytes.
func (v Value) WireSize() int {
	switch v.kind {
	case KindNil:
		return 1
	case KindBool:
		return 2
	case KindInt:
		return 9
	case KindNode:
		return 5
	default:
		return len(v.encOf())
	}
}

// Encode appends the canonical encoding of v to dst and returns the extended
// slice. Interned kinds append their memoized encoding in one copy.
func (v Value) Encode(dst []byte) []byte {
	switch v.kind {
	case KindNil:
		return append(dst, byte(KindNil))
	case KindBool:
		b := byte(0)
		if v.i != 0 {
			b = 1
		}
		return append(dst, byte(KindBool), b)
	case KindInt:
		dst = append(dst, byte(KindInt))
		return binary.BigEndian.AppendUint64(dst, uint64(v.i))
	case KindNode:
		dst = append(dst, byte(KindNode))
		return binary.BigEndian.AppendUint32(dst, uint32(int32(v.i)))
	default:
		return append(dst, v.encOf()...)
	}
}

// DecodeValue decodes one value from b, returning the value and the number
// of bytes consumed. Provenance payloads decode as opaque byte payloads.
// Decoding interns heavy payloads, so a decoded value is == to the value
// that was encoded.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, errTruncated
	}
	kind := Kind(b[0])
	rest := b[1:]
	switch kind {
	case KindNil:
		return Nil(), 1, nil
	case KindBool:
		if len(rest) < 1 {
			return Value{}, 0, errTruncated
		}
		if rest[0] > 1 {
			return Value{}, 0, errNonCanonical
		}
		return Bool(rest[0] != 0), 2, nil
	case KindInt:
		if len(rest) < 8 {
			return Value{}, 0, errTruncated
		}
		return Int(int64(binary.BigEndian.Uint64(rest))), 9, nil
	case KindStr:
		n, sz, ok := ReadUvarint(rest)
		if !ok || n > uint64(len(rest)-sz) {
			return Value{}, 0, errTruncated
		}
		return Str(string(rest[sz : sz+int(n)])), 1 + sz + int(n), nil
	case KindNode:
		if len(rest) < 4 {
			return Value{}, 0, errTruncated
		}
		return Node(NodeID(int32(binary.BigEndian.Uint32(rest)))), 5, nil
	case KindID:
		if len(rest) < IDLen {
			return Value{}, 0, errTruncated
		}
		var id ID
		copy(id[:], rest[:IDLen])
		return IDVal(id), 1 + IDLen, nil
	case KindList:
		n, sz, ok := ReadUvarint(rest)
		if !ok {
			return Value{}, 0, errTruncated
		}
		used := 1 + sz
		// Cap the preallocation: the count is attacker-controlled (six
		// hostile bytes could otherwise reserve gigabytes), and every real
		// element costs at least one byte, so oversized counts fail with
		// errTruncated after a bounded append.
		elems := make([]Value, 0, min(n, 64))
		cur := b[used:]
		for i := uint64(0); i < n; i++ {
			e, k, err := DecodeValue(cur)
			if err != nil {
				return Value{}, 0, err
			}
			elems = append(elems, e)
			cur = cur[k:]
			used += k
		}
		return List(elems...), used, nil
	case KindProv:
		n, sz, ok := ReadUvarint(rest)
		if !ok || n > uint64(len(rest)-sz) {
			return Value{}, 0, errTruncated
		}
		return Prov(rest[sz : sz+int(n)]), 1 + sz + int(n), nil
	}
	return Value{}, 0, fmt.Errorf("types: unknown value kind %d", kind)
}

// UvarintLen reports the length of x's (minimal) uvarint encoding.
func UvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
