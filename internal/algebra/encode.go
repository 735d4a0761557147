package algebra

import (
	"encoding/binary"
	"errors"

	"repro/internal/types"
)

// Wire format for polynomials, used when POLYNOMIAL query results travel
// between nodes (Figs 11, 15; specified in docs/wire-format.md):
//
//	zero  -> tag
//	one   -> tag
//	base  -> tag + 20-byte VID + 4-byte node + uvarint len + label
//	sum   -> tag + uvarint len + annotation + uvarint count + kids
//	prod  -> tag + uvarint len + annotation + uvarint count + kids
//
// The encoding of a sum or product is a header followed by its kids'
// encodings, so a query hop composes results on this form (SpliceSum,
// SpliceProd) without building a tree. That makes the bytes a contract
// between hops: uvarints are minimal and the decoders reject any other
// spelling, so Check-then-forward ships exactly what Decode-then-encode
// would.

var errBadExpr = errors.New("algebra: malformed polynomial encoding")

// EncodePayload renders the polynomial in its canonical wire form.
func (e *Expr) EncodePayload() []byte { return e.encode(nil) }

func (e *Expr) encode(dst []byte) []byte {
	if e == nil {
		return append(dst, byte(OpZero))
	}
	switch e.Op {
	case OpBase:
		return AppendBase(dst, e.Base)
	case OpSum, OpProd:
		dst = append(dst, byte(e.Op))
		dst = binary.AppendUvarint(dst, uint64(len(e.Ann)))
		dst = append(dst, e.Ann...)
		dst = binary.AppendUvarint(dst, uint64(len(e.Kids)))
		for _, k := range e.Kids {
			dst = k.encode(dst)
		}
		return dst
	}
	return append(dst, byte(e.Op))
}

// BaseSize reports the encoded length of a base literal with this label.
func BaseSize(label string) int {
	return 1 + types.IDLen + 4 + types.UvarintLen(uint64(len(label))) + len(label)
}

// AppendBase appends the encoding of the base literal b to dst.
//
//exspan:hotpath
func AppendBase(dst []byte, b Base) []byte {
	dst = append(dst, byte(OpBase))
	dst = append(dst, b.VID[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(b.Node)))
	dst = binary.AppendUvarint(dst, uint64(len(b.Label)))
	return append(dst, b.Label...)
}

// SpliceSum returns the encoding of Sum(rule+"@"+loc, kids...) given the
// kids' encodings: it validates each kid, applies Sum's collapse rules to
// their first bytes and copies the survivors behind one header. A kid that
// fails Check or carries trailing bytes makes the result Zero.
//
//exspan:hotpath
func SpliceSum(rule string, loc types.NodeID, kids [][]byte) []byte {
	return splice(OpSum, OpZero, rule, loc, kids)
}

// SpliceProd is SpliceSum for Prod(rule+"@"+loc, kids...).
//
//exspan:hotpath
func SpliceProd(rule string, loc types.NodeID, kids [][]byte) []byte {
	return splice(OpProd, OpOne, rule, loc, kids)
}

// splice builds an op node whose neutral element (the empty op, and the kid
// that vanishes from it) is unit. The annotation always holds an "@", so
// Sum/Prod's collapse of a single unannotated kid cannot arise here.
//
//exspan:hotpath
func splice(op, unit Op, rule string, loc types.NodeID, kids [][]byte) []byte {
	var nb [12]byte
	name := loc.AppendString(nb[:0])
	annLen := len(rule) + 1 + len(name)

	result := unit // what the node collapses to unless kids survive
	kept, body := 0, 0
	for _, k := range kids {
		if n, err := Check(k); err != nil || n != len(k) {
			result, kept = OpZero, 0
			break
		}
		switch Op(k[0]) {
		case unit:
			continue
		case OpZero: // only in a product: it absorbs every other kid
			result = OpZero
		}
		kept++
		body += len(k)
	}
	size := 1
	if result == unit && kept > 0 {
		size += types.UvarintLen(uint64(annLen)) + annLen + types.UvarintLen(uint64(kept)) + body
	}
	//exspanlint:alloc-ok the result itself: one buffer, sized exactly
	out := make([]byte, 0, size)
	if size == 1 {
		return append(out, byte(result))
	}
	out = append(out, byte(op))
	out = binary.AppendUvarint(out, uint64(annLen))
	out = append(out, rule...)
	out = append(out, '@')
	out = append(out, name...)
	out = binary.AppendUvarint(out, uint64(kept))
	for _, k := range kids {
		if Op(k[0]) != unit {
			out = append(out, k...)
		}
	}
	return out
}

// header parses the node at the front of b under the rules Check and Decode
// share: text is the label (base) or annotation (sum, product), kids the
// number of child encodings that follow the n header bytes. Lengths and
// counts are attacker-supplied, so they are compared as uint64 against the
// bytes that remain (a kid takes at least one) before any narrowing.
//
//exspan:hotpath
func header(b []byte) (op Op, text []byte, kids uint64, n int, err error) {
	if len(b) == 0 {
		return 0, nil, 0, 0, errBadExpr
	}
	op, n = Op(b[0]), 1
	switch op {
	case OpZero, OpOne:
		return op, nil, 0, n, nil
	case OpBase:
		n += types.IDLen + 4
		if len(b) < n {
			return 0, nil, 0, 0, errBadExpr
		}
	case OpSum, OpProd:
	default:
		return 0, nil, 0, 0, errBadExpr
	}
	l, sz, ok := types.ReadUvarint(b[n:])
	if !ok || l > uint64(len(b)-n-sz) {
		return 0, nil, 0, 0, errBadExpr
	}
	n += sz
	text = b[n : n+int(l)]
	n += int(l)
	if op == OpBase {
		return op, text, 0, n, nil
	}
	kids, sz, ok = types.ReadUvarint(b[n:])
	if !ok || kids > uint64(len(b)-n-sz) {
		return 0, nil, 0, 0, errBadExpr
	}
	return op, text, kids, n + sz, nil
}

// Check validates the polynomial encoded at the front of b without building
// it and returns its length. It accepts exactly what Decode accepts.
//
//exspan:hotpath
func Check(b []byte) (n int, err error) {
	for pending := uint64(1); pending > 0; pending-- {
		_, _, kids, hdr, err := header(b[n:])
		if err != nil {
			return 0, err
		}
		n += hdr
		pending += kids
	}
	return n, nil
}

// Decode parses one polynomial from b, returning the expression and the
// number of bytes consumed.
func Decode(b []byte) (*Expr, int, error) {
	op, text, count, used, err := header(b)
	if err != nil {
		return nil, 0, err
	}
	switch op {
	case OpZero:
		return Zero(), used, nil
	case OpOne:
		return One(), used, nil
	case OpBase:
		base := Base{Label: string(text)}
		copy(base.VID[:], b[1:])
		base.Node = types.NodeID(int32(binary.BigEndian.Uint32(b[1+types.IDLen:])))
		return NewBase(base), used, nil
	}
	// count fits the bytes that remain, but those are not parsed yet: a
	// hostile nest of large counts must not reserve a slice per level.
	kids := make([]*Expr, 0, min(count, 8))
	for i := uint64(0); i < count; i++ {
		k, n, err := Decode(b[used:])
		if err != nil {
			return nil, 0, err
		}
		kids = append(kids, k)
		used += n
	}
	return &Expr{Op: op, Kids: kids, Ann: string(text)}, used, nil
}
