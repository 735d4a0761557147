package types

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Tuple is a fact of a relation: a predicate name plus a list of argument
// values. By declarative-networking convention the first argument is the
// location specifier (the node at which the tuple resides).
type Tuple struct {
	Pred string
	Args []Value
}

// NewTuple builds a tuple.
func NewTuple(pred string, args ...Value) Tuple { return Tuple{Pred: pred, Args: args} }

// Loc returns the tuple's location specifier (its first attribute). It
// returns -1 when the tuple has no node-valued first attribute.
func (t Tuple) Loc() NodeID {
	if len(t.Args) == 0 {
		return -1
	}
	return t.Args[0].AsNode()
}

// Arity returns the number of attributes.
func (t Tuple) Arity() int { return len(t.Args) }

// Equal reports deep equality of predicate and arguments.
func (t Tuple) Equal(o Tuple) bool {
	if t.Pred != o.Pred || len(t.Args) != len(o.Args) {
		return false
	}
	for i := range t.Args {
		if !t.Args[i].Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

// Encode appends the canonical encoding of the tuple: uvarint name length,
// name bytes, uvarint arity, then each argument's value encoding.
func (t Tuple) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t.Pred)))
	dst = append(dst, t.Pred...)
	dst = binary.AppendUvarint(dst, uint64(len(t.Args)))
	for _, a := range t.Args {
		dst = a.Encode(dst)
	}
	return dst
}

// DecodeTuple decodes one tuple from b, returning the tuple and the number
// of bytes consumed.
func DecodeTuple(b []byte) (Tuple, int, error) {
	n, sz, ok := ReadUvarint(b)
	if !ok || n > uint64(len(b)-sz) {
		return Tuple{}, 0, errTruncated
	}
	pred := string(b[sz : sz+int(n)])
	used := sz + int(n)
	arity, sz2, ok := ReadUvarint(b[used:])
	if !ok {
		return Tuple{}, 0, errTruncated
	}
	used += sz2
	// Bounded preallocation; see the matching cap in DecodeValue.
	args := make([]Value, 0, min(arity, 64))
	for i := uint64(0); i < arity; i++ {
		v, k, err := DecodeValue(b[used:])
		if err != nil {
			return Tuple{}, 0, err
		}
		args = append(args, v)
		used += k
	}
	return Tuple{Pred: pred, Args: args}, used, nil
}

// WireSize reports the encoded size of the tuple in bytes.
func (t Tuple) WireSize() int {
	n := UvarintLen(uint64(len(t.Pred))) + len(t.Pred) + UvarintLen(uint64(len(t.Args)))
	for _, a := range t.Args {
		n += a.WireSize()
	}
	return n
}

// Key returns the canonical encoding as a string: a process-independent,
// content-derived identity for the tuple. Hot paths key their maps on the
// cheaper process-local AppendArgsKey form instead.
func (t Tuple) Key() string { return string(t.Encode(nil)) }

// SortTuples orders tuples in place by their canonical encoding — the
// process-independent order Node.Tuples returns, so snapshots of the same
// state compare byte-for-byte across processes and drivers.
func SortTuples(ts []Tuple) {
	keys := make([]string, len(ts))
	var buf []byte
	for i := range ts {
		buf = ts[i].Encode(buf[:0])
		keys[i] = string(buf)
	}
	sort.Sort(&tupleSorter{ts: ts, keys: keys})
}

type tupleSorter struct {
	ts   []Tuple
	keys []string
}

func (s *tupleSorter) Len() int           { return len(s.ts) }
func (s *tupleSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *tupleSorter) Swap(i, j int) {
	s.ts[i], s.ts[j] = s.ts[j], s.ts[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// AppendArgsKey appends the fixed-width process-local identity key of the
// tuple's arguments (see Value.AppendKey): nine bytes per argument, no
// string or digest copies. Two tuples of the same predicate have equal args
// keys exactly when they are equal, which is what per-relation entry maps
// and index buckets key on. The predicate is deliberately omitted — the
// containing relation fixes it. Never used on the wire.
//
//exspan:hotpath
func (t Tuple) AppendArgsKey(dst []byte) []byte {
	for _, a := range t.Args {
		dst = a.AppendKey(dst)
	}
	return dst
}

// vidHook, when non-nil, observes every full VID computation. It exists so
// tests can assert how often tuples are re-hashed on the evaluation hot path;
// production code never sets it.
var vidHook func(Tuple)

// SetVIDHook installs (or, with nil, removes) the VID-computation observer.
// Test instrumentation only; not safe for concurrent use with evaluation.
func SetVIDHook(f func(Tuple)) { vidHook = f }

// VID computes the tuple's provenance vertex identifier: the SHA-1 digest of
// its predicate name, location specifier and attribute values — the paper's
// VID = SHA1("pathCost"+X+Y+C).
func (t Tuple) VID() ID {
	id, _ := t.VIDBuf(nil)
	return id
}

// VIDBuf is VID with a caller-supplied scratch buffer for the canonical
// encoding, so hot paths can hash tuples without allocating per call. It
// returns the identifier and the (possibly grown) buffer.
func (t Tuple) VIDBuf(buf []byte) (ID, []byte) {
	if vidHook != nil {
		vidHook(t)
	}
	buf = t.Encode(buf[:0])
	return HashBytes(buf), buf
}

// RuleExecID computes the identifier of a rule-execution vertex for rule
// named rule at location loc over the given input tuple VIDs — the paper's
// RID = SHA1(R + RLoc + List).
func RuleExecID(rule string, loc NodeID, inputs []ID) ID {
	id, _ := RuleExecIDBuf(rule, loc, inputs, nil)
	return id
}

// RuleExecIDBuf is RuleExecID with a caller-supplied scratch buffer. It
// returns the identifier and the (possibly grown) buffer so hot paths can
// compute RIDs without allocating per call.
func RuleExecIDBuf(rule string, loc NodeID, inputs []ID, buf []byte) (ID, []byte) {
	b := buf[:0]
	b = append(b, rule...)
	b = binary.BigEndian.AppendUint32(b, uint32(int32(loc)))
	for _, in := range inputs {
		b = append(b, in[:]...)
	}
	return HashBytes(b), b
}

// String renders the tuple in the paper's notation, e.g.
// bestPathCost(@a,c,5).
func (t Tuple) String() string {
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = a.String()
		if i == 0 && a.Kind() == KindNode {
			parts[i] = "@" + parts[i]
		}
	}
	return fmt.Sprintf("%s(%s)", t.Pred, strings.Join(parts, ","))
}
