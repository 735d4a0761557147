package provquery

import (
	"encoding/binary"

	"repro/internal/algebra"
	"repro/internal/bdd"
	"repro/internal/types"
)

// Ctx distinguishes the two combination sites of the traversal: IDB
// (alternative derivations of a tuple vertex, the paper's "+") and Rule
// (joined inputs of a rule execution vertex, the paper's "·").
type Ctx uint8

// Combination contexts.
const (
	CtxIDB Ctx = iota
	CtxRule
)

// UDF is the customization triple of §5.2 — f_pEDB, f_pIDB, f_pRULE —
// operating on wire-encoded partial results so intermediate values can
// travel between nodes. A children slice is the processor's scratch, valid
// only during the call; the payloads in it are immutable and may be kept.
type UDF interface {
	// Name identifies the representation. The §6.1 cache tags entries by
	// the UDF value itself, not its name — two Derivability UDFs with
	// different trust predicates must not share results — so a UDF's
	// dynamic type must be comparable: the constructors return pointers.
	Name() string
	// EDB computes the annotation of a base tuple (f_pEDB).
	EDB(t types.Tuple, vid types.ID, node types.NodeID) []byte
	// IDB combines the annotations of a tuple's alternative derivations
	// (f_pIDB), annotated with the tuple's location.
	IDB(children [][]byte, vid types.ID, node types.NodeID) []byte
	// Rule combines the annotations of a rule execution's inputs
	// (f_pRULE), annotated with the rule label and its location.
	Rule(children [][]byte, rule string, loc types.NodeID) []byte
	// Exceeds reports whether a partial result already crosses the
	// threshold of a threshold-based query, allowing DFS-THRESHOLD to
	// stop early. Representations without a monotone measure return
	// false.
	Exceeds(ctx Ctx, children [][]byte, threshold int64) bool
}

// ---------------------------------------------------------------------------
// POLYNOMIAL: provenance polynomials (§5.2.1).

// Polynomial returns query results as provenance polynomials, e.g.
// <sp1@a>(link(@a,c,5)) + <sp2@b>(...).
type Polynomial struct{}

// Name implements UDF.
func (Polynomial) Name() string { return "polynomial" }

// EDB implements UDF: the base tuple itself is the literal.
func (Polynomial) EDB(t types.Tuple, vid types.ID, node types.NodeID) []byte {
	label := t.String()
	return algebra.AppendBase(make([]byte, 0, algebra.BaseSize(label)), algebra.Base{VID: vid, Label: label, Node: node})
}

// IDB implements UDF: (D1 + D2 + ... + Dn)@Loc. Children are validated and
// spliced on the wire form; a malformed child makes the result Zero.
func (Polynomial) IDB(children [][]byte, vid types.ID, node types.NodeID) []byte {
	return algebra.SpliceSum("", node, children)
}

// Rule implements UDF: <R@RLoc>(P1 · P2 · ... · Pn), composed like IDB.
func (Polynomial) Rule(children [][]byte, rule string, loc types.NodeID) []byte {
	return algebra.SpliceProd(rule, loc, children)
}

// Exceeds implements UDF (not applicable).
func (Polynomial) Exceeds(Ctx, [][]byte, int64) bool { return false }

// DecodePolynomial parses a POLYNOMIAL query result.
func DecodePolynomial(payload []byte) (*algebra.Expr, error) {
	e, _, err := algebra.Decode(payload)
	return e, err
}

// ---------------------------------------------------------------------------
// The other representations are homomorphic images of POLYNOMIAL: each is an
// algebra semiring plus a wire codec, and the UDF triple is the semiring's
// FromBase, sum and product on decoded children (an algebra.Ring).

// fold sums (CtxIDB) or multiplies (CtxRule) the decoded children. A child
// that does not decode makes the result Zero, as a malformed child does
// under POLYNOMIAL.
func fold[T any](r algebra.Ring[T], ctx Ctx, children [][]byte) T {
	acc, op := r.Zero(), r.Add
	if ctx == CtxRule {
		acc, op = r.One(), r.Mul
	}
	for _, c := range children {
		v, ok := r.Decode(c)
		if !ok {
			return r.Zero()
		}
		acc = op(acc, v)
	}
	return acc
}

// ringUDF implements UDF by a ring opened once per call.
type ringUDF[T any] struct {
	name string
	open func() algebra.Ring[T]
	// final reports whether a partial fold is final for a threshold query:
	// the representation's measure is monotone in further children. Nil
	// never stops early.
	final func(ctx Ctx, acc T, threshold int64) bool
}

// Name implements UDF.
func (u *ringUDF[T]) Name() string { return u.name }

// EDB implements UDF: the semiring's value of the base tuple.
func (u *ringUDF[T]) EDB(t types.Tuple, vid types.ID, node types.NodeID) []byte {
	r := u.open()
	return r.Encode(r.FromBase(algebra.Base{VID: vid, Label: t.String(), Node: node}))
}

// IDB implements UDF: the semiring sum.
func (u *ringUDF[T]) IDB(children [][]byte, _ types.ID, _ types.NodeID) []byte {
	r := u.open()
	return r.Encode(fold(r, CtxIDB, children))
}

// Rule implements UDF: the semiring product.
func (u *ringUDF[T]) Rule(children [][]byte, _ string, _ types.NodeID) []byte {
	r := u.open()
	return r.Encode(fold(r, CtxRule, children))
}

// Exceeds implements UDF.
func (u *ringUDF[T]) Exceeds(ctx Ctx, children [][]byte, threshold int64) bool {
	return u.final != nil && u.final(ctx, fold(u.open(), ctx, children), threshold)
}

// BDD returns query results as serialized BDDs over base-tuple variables,
// applying boolean absorption by construction (§6.3): algebra.BDD, combined
// in a fresh manager per call. name gives a base tuple its variable; EDB
// runs at the tuple's owner, so name resolves it in the owner's store
// (driver.BaseVar).
func BDD(name func(algebra.Base) bdd.Var) UDF {
	return &ringUDF[algebra.Payload]{name: "bdd", open: func() algebra.Ring[algebra.Payload] {
		return algebra.BDD(bdd.New(), name)
	}}
}

// Derivations counts a tuple's distinct derivations (#DERIVATIONS, §5.2.2,
// Table 3) as an 8-byte big-endian count. Over derivable children (counts
// >= 1) sum and product only grow, so a partial count above the threshold is
// final.
func Derivations() UDF {
	return &ringUDF[int64]{
		name: "derivations",
		open: func() algebra.Ring[int64] {
			return algebra.Ring[int64]{Semiring: algebra.Counting(), Encode: encodeCount, Decode: decodeCount}
		},
		final: func(_ Ctx, acc int64, threshold int64) bool { return acc > threshold },
	}
}

func encodeCount(v int64) []byte { return binary.BigEndian.AppendUint64(make([]byte, 0, 8), uint64(v)) }

func decodeCount(b []byte) (int64, bool) {
	if len(b) != 8 {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(b)), true
}

// DecodeCount parses a #DERIVATIONS result (0 if malformed).
func DecodeCount(payload []byte) int64 {
	v, _ := decodeCount(payload)
	return v
}

// NodeSet computes the set of nodes holding the base tuples of a tuple's
// derivations (NODESET, §5.2.2, Table 3) as ascending 4-byte big-endian
// NodeIDs; a join with an underivable input contributes no node. Zero and
// the empty product share the empty payload, which decodes as Zero. Over
// derivable children the union only grows, so a partial set larger than the
// threshold is final ("fewer than T' unique nodes?").
func NodeSet() UDF {
	return &ringUDF[[]types.NodeID]{
		name: "nodeset",
		open: func() algebra.Ring[[]types.NodeID] {
			return algebra.Ring[[]types.NodeID]{Semiring: algebra.NodeSet(), Encode: encodeNodeSet, Decode: decodeNodes}
		},
		final: func(_ Ctx, acc []types.NodeID, threshold int64) bool { return int64(len(acc)) > threshold },
	}
}

func encodeNodeSet(nodes []types.NodeID) []byte {
	b := make([]byte, 0, 4*len(nodes))
	for _, n := range nodes {
		b = binary.BigEndian.AppendUint32(b, uint32(int32(n)))
	}
	return b
}

// decodeNodes accepts whole 4-byte groups in strictly ascending order.
func decodeNodes(b []byte) ([]types.NodeID, bool) {
	if len(b) == 0 || len(b)%4 != 0 {
		return nil, len(b) == 0
	}
	nodes := DecodeNodeSet(b)
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			return nil, false
		}
	}
	return nodes, true
}

// DecodeNodeSet parses a NODESET result into a sorted node list.
func DecodeNodeSet(payload []byte) []types.NodeID {
	out := make([]types.NodeID, 0, len(payload)/4)
	for i := 0; i+4 <= len(payload); i += 4 {
		out = append(out, types.NodeID(int32(binary.BigEndian.Uint32(payload[i:]))))
	}
	return out
}

// Derivability tests whether the tuple is derivable (DERIVABILITY, §5.2.2,
// Table 3) as one byte, 0 or 1, counting only base tuples trusted accepts —
// the paper's trust-domain projection; nil trusts everything. A true
// alternative settles a tuple vertex, whatever the threshold.
func Derivability(trusted func(algebra.Base) bool) UDF {
	s := algebra.Boolean()
	if trusted != nil {
		s.FromBase = trusted
	}
	return &ringUDF[bool]{
		name: "derivability",
		open: func() algebra.Ring[bool] {
			return algebra.Ring[bool]{Semiring: s, Encode: encodeBool, Decode: decodeBool}
		},
		final: func(ctx Ctx, acc bool, _ int64) bool { return ctx == CtxIDB && acc },
	}
}

func encodeBool(v bool) []byte {
	if v {
		return []byte{1}
	}
	return []byte{0}
}

func decodeBool(b []byte) (bool, bool) { return len(b) == 1 && b[0] == 1, len(b) == 1 && b[0] <= 1 }

// DecodeBool parses a DERIVABILITY result.
func DecodeBool(payload []byte) bool {
	v, _ := decodeBool(payload)
	return v
}
