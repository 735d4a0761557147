// Package types defines the value and tuple model shared by every ExSPAN
// component: the NDlog engine, the provenance store, the network simulator
// and the UDP deployment runtime.
//
// Values form a small tagged union held in a compact, pointer-free struct:
// a kind tag, an inline 64-bit payload (booleans, integers, node addresses,
// and the leading bytes of IDs), and a 32-bit handle into the per-process
// interning layer for heavy payloads (strings, full 20-byte IDs, lists,
// provenance annotations — see intern.go). Because handles are canonical,
// Value supports Go's == operator, and slices of values carry no pointers
// for the garbage collector to trace.
//
// Every value has a deterministic canonical encoding (used both on the wire
// and as input to SHA-1 when computing provenance vertex identifiers) and a
// deterministic wire size, so that simulated byte counts match deployed
// byte counts exactly. The encoding is specified in docs/wire-format.md; it
// is computed from payload content and never exposes interning handles, so
// processes with different interning histories interoperate freely.
package types

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the value kinds supported by the engine.
type Kind uint8

// Value kinds. The zero Kind is Nil.
const (
	KindNil Kind = iota
	KindBool
	KindInt
	KindStr
	KindNode
	KindID
	KindList
	KindProv
)

func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindStr:
		return "str"
	case KindNode:
		return "node"
	case KindID:
		return "id"
	case KindList:
		return "list"
	case KindProv:
		return "prov"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// interned reports whether values of this kind keep their payload in the
// interning layer (reachable through Value.h) rather than inline in Value.i.
func (k Kind) interned() bool {
	return k == KindStr || k == KindID || k == KindList || k == KindProv
}

// NodeID identifies a network node. On the wire it occupies four bytes,
// mirroring an IPv4 address in the paper's deployment.
type NodeID int32

// String renders small node IDs as letters (a, b, c, ...) to match the
// paper's examples, and falls back to n<id> for larger networks.
func (n NodeID) String() string {
	var b [12]byte
	return string(n.AppendString(b[:0]))
}

// AppendString appends the String form to dst.
func (n NodeID) AppendString(dst []byte) []byte {
	if n >= 0 && n < 26 {
		return append(dst, byte('a'+n))
	}
	return strconv.AppendInt(append(dst, 'n'), int64(n), 10)
}

// Value is an immutable tagged union. Construct values with Nil, Bool, Int,
// Str, Node, IDVal, List and Prov; inspect them with the Kind and accessor
// methods. The zero Value is Nil.
//
// The struct is 16 bytes and contains no pointers: kind selects the union
// arm, i holds inline payloads (bool as 0/1, int, node; for IDs the first
// eight digest bytes, big-endian, as a comparison prefix), and h names the
// interned heavy payload for string, ID, list and provenance values. The
// interning layer deduplicates payloads, so two Values are equal exactly
// when their structs are equal, and Value is a valid Go map key. A fence in
// types_test.go pins unsafe.Sizeof(Value{}) ≤ 24.
type Value struct {
	i    int64
	h    uint32
	kind Kind
}

// Constructors.

// Nil returns the nil value.
func Nil() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Str returns a string value. The string is interned: repeated construction
// of the same string is allocation-free and yields identical handles.
func Str(s string) Value { return Value{kind: KindStr, h: internStr(s)} }

// Node returns a node-address value.
func Node(n NodeID) Value { return Value{kind: KindNode, i: int64(n)} }

// IDVal returns a 20-byte digest value. The digest is interned; the first
// eight bytes ride inline as a comparison prefix.
func IDVal(id ID) Value {
	return Value{
		kind: KindID,
		i:    int64(binary.BigEndian.Uint64(id[:8])),
		h:    internID(id),
	}
}

// List returns a list value holding the given elements. The slice is
// interned (by the canonical encoding of its elements) and retained; callers
// must not mutate it afterwards.
func List(elems ...Value) Value { return Value{kind: KindList, h: internList(elems)} }

// Prov wraps a provenance payload — its canonical bytes, opaque to this
// package — in a value. Payloads are interned by their bytes, which are
// copied; a nil payload interns like an empty one.
func Prov(b []byte) Value { return Value{kind: KindProv, h: internPayload(b)} }

// Accessors.

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether the value is nil.
func (v Value) IsNil() bool { return v.kind == KindNil }

// AsBool returns the boolean payload; it is false for non-bool values.
func (v Value) AsBool() bool { return v.kind == KindBool && v.i != 0 }

// AsInt returns the integer payload (0 for non-int values).
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		return 0
	}
	return v.i
}

// AsNode returns the node payload (-1 for non-node values).
func (v Value) AsNode() NodeID {
	if v.kind != KindNode {
		return -1
	}
	return NodeID(v.i)
}

// AsStr returns the string payload ("" for non-string values).
func (v Value) AsStr() string {
	if v.kind != KindStr {
		return ""
	}
	return strTab.store.get(v.h).s
}

// AsID returns the digest payload (zero ID for other kinds).
func (v Value) AsID() ID {
	if v.kind != KindID {
		return ID{}
	}
	return idTab.store.get(v.h).id
}

// AsList returns the list elements (nil for other kinds). The slice is
// shared with every equal list value; callers must not mutate it.
func (v Value) AsList() []Value {
	if v.kind != KindList {
		return nil
	}
	return listTab.store.get(v.h).elems
}

// AsProv returns the provenance payload's bytes (nil for other kinds). The
// slice is shared with every equal prov value; callers must not mutate it.
func (v Value) AsProv() []byte {
	if v.kind != KindProv {
		return nil
	}
	e := provTab.store.get(v.h)
	return e.enc[len(e.enc)-len(e.key):]
}

// Truthy reports whether a value counts as true in a rule constraint:
// booleans by their payload, integers by non-zero.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.i != 0
	default:
		return !v.IsNil()
	}
}

// Equal reports deep equality. Because heavy payloads are interned to
// canonical handles, this is a plain struct comparison; v == o is
// equivalent.
func (v Value) Equal(o Value) bool { return v == o }

// Compare defines a deterministic total order across values (first by kind,
// then by payload). It is used for stable aggregate tie-breaking and for
// canonical output ordering. The order depends only on payload content —
// never on interning handles — so it is reproducible across processes.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		return int(v.kind) - int(o.kind)
	}
	switch v.kind {
	case KindNil:
		return 0
	case KindBool, KindInt, KindNode:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
		return 0
	case KindStr:
		if v.h == o.h {
			return 0
		}
		return strings.Compare(strTab.store.get(v.h).s, strTab.store.get(o.h).s)
	case KindID:
		if v.h == o.h {
			return 0
		}
		// The inline prefix is the first eight digest bytes big-endian, so
		// unsigned comparison matches lexicographic byte order.
		switch a, b := uint64(v.i), uint64(o.i); {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		va, vb := idTab.store.get(v.h).id, idTab.store.get(o.h).id
		return strings.Compare(string(va[8:]), string(vb[8:]))
	case KindList:
		if v.h == o.h {
			return 0
		}
		la, lb := listTab.store.get(v.h).elems, listTab.store.get(o.h).elems
		for i := 0; i < len(la) && i < len(lb); i++ {
			if c := la[i].Compare(lb[i]); c != 0 {
				return c
			}
		}
		return len(la) - len(lb)
	case KindProv:
		if v.h == o.h {
			return 0
		}
		return strings.Compare(provTab.store.get(v.h).key, provTab.store.get(o.h).key)
	}
	return 0
}

// AppendKey appends a fixed-width process-local identity key for v: the kind
// byte followed by eight payload bytes (the inline payload, or the interned
// handle zero-extended). Key equality coincides with value equality, and
// building a key copies no string or digest content, which is why relations
// and aggregate groups key their maps on it. Keys are meaningless outside
// this process and never touch the wire — use Encode for canonical bytes.
//
//exspan:hotpath
func (v Value) AppendKey(dst []byte) []byte {
	w := uint64(v.i)
	if v.kind.interned() {
		w = uint64(v.h)
	}
	return append(dst,
		byte(v.kind),
		byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
		byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
}

// String renders the value in the paper's notation: nodes as letters,
// digests as an 8-hex-digit prefix, lists in parentheses.
func (v Value) String() string {
	switch v.kind {
	case KindNil:
		return "null"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return fmt.Sprintf("%d", v.i)
	case KindStr:
		return v.AsStr()
	case KindNode:
		return NodeID(v.i).String()
	case KindID:
		return v.AsID().Short()
	case KindList:
		elems := v.AsList()
		parts := make([]string, len(elems))
		for i, e := range elems {
			parts[i] = e.String()
		}
		return "(" + strings.Join(parts, ",") + ")"
	case KindProv:
		return fmt.Sprintf("opaque[%dB]", len(v.AsProv()))
	}
	return "?"
}

// SortValues orders a slice of values in place by Compare.
func SortValues(vs []Value) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Compare(vs[j]) < 0 })
}
