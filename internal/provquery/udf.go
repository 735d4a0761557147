package provquery

import (
	"encoding/binary"
	"fmt"
	"sort"

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
	// Name identifies the representation (cache entries are tagged with
	// it so different query types never share results).
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
// BDD: absorption-condensed provenance (§6.3).

// BDDProv returns query results as serialized BDDs over base-tuple
// variables allocated from a cluster-shared VarAlloc, applying boolean
// absorption by construction.
type BDDProv struct {
	Alloc *algebra.VarAlloc
}

// Name implements UDF.
func (BDDProv) Name() string { return "bdd" }

// EDB implements UDF.
func (u BDDProv) EDB(t types.Tuple, vid types.ID, node types.NodeID) []byte {
	m := bdd.New()
	v := m.Var(u.Alloc.VarOf(algebra.Base{VID: vid, Label: t.String(), Node: node}))
	return m.Encode(v, nil)
}

// IDB implements UDF: OR over alternative derivations.
func (u BDDProv) IDB(children [][]byte, vid types.ID, node types.NodeID) []byte {
	return combineBDD(children, false)
}

// Rule implements UDF: AND over rule inputs.
func (u BDDProv) Rule(children [][]byte, rule string, loc types.NodeID) []byte {
	return combineBDD(children, true)
}

// Exceeds implements UDF (not applicable).
func (BDDProv) Exceeds(Ctx, [][]byte, int64) bool { return false }

func combineBDD(children [][]byte, and bool) []byte {
	m := bdd.New()
	acc := bdd.False
	if and {
		acc = bdd.True
	}
	for _, c := range children {
		r, _, err := m.Decode(c)
		if err != nil {
			return m.Encode(bdd.False, nil)
		}
		if and {
			acc = m.And(acc, r)
		} else {
			acc = m.Or(acc, r)
		}
	}
	return m.Encode(acc, nil)
}

// DecodeBDD parses a BDD query result into the given manager.
func DecodeBDD(m *bdd.Manager, payload []byte) (bdd.Ref, error) {
	r, _, err := m.Decode(payload)
	return r, err
}

// ---------------------------------------------------------------------------
// #DERIVATIONS: number of alternative derivations (§5.2.2, Table 3).

// Derivations counts the number of distinct derivations: f_pEDB = 1,
// f_pIDB = sum, f_pRULE = product.
type Derivations struct{}

// Name implements UDF.
func (Derivations) Name() string { return "derivations" }

// EDB implements UDF.
func (Derivations) EDB(types.Tuple, types.ID, types.NodeID) []byte { return encodeCount(1) }

// IDB implements UDF.
func (Derivations) IDB(children [][]byte, _ types.ID, _ types.NodeID) []byte {
	var sum int64
	for _, c := range children {
		sum += decodeCount(c)
	}
	return encodeCount(sum)
}

// Rule implements UDF.
func (Derivations) Rule(children [][]byte, _ string, _ types.NodeID) []byte {
	prod := int64(1)
	for _, c := range children {
		prod *= decodeCount(c)
	}
	return encodeCount(prod)
}

// Exceeds implements UDF: both the running sum (IDB) and the running
// product over inputs that each have >= 1 derivation (Rule) are monotone,
// so a partial value above the threshold is final.
func (Derivations) Exceeds(ctx Ctx, children [][]byte, threshold int64) bool {
	if len(children) == 0 {
		return false
	}
	acc := int64(0)
	if ctx == CtxRule {
		acc = 1
	}
	for _, c := range children {
		v := decodeCount(c)
		if ctx == CtxIDB {
			acc += v
		} else {
			acc *= v
		}
	}
	return acc > threshold
}

func encodeCount(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func decodeCount(b []byte) int64 {
	if len(b) != 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

// DecodeCount parses a #DERIVATIONS result.
func DecodeCount(payload []byte) int64 { return decodeCount(payload) }

// ---------------------------------------------------------------------------
// NODESET: the nodes participating in any derivation (§5.2.2, Table 3).

// NodeSet computes the set of nodes involved in a tuple's derivations;
// both combination sites are set union.
type NodeSet struct{}

// Name implements UDF.
func (NodeSet) Name() string { return "nodeset" }

// EDB implements UDF.
func (NodeSet) EDB(_ types.Tuple, _ types.ID, node types.NodeID) []byte {
	return encodeNodeSet([]types.NodeID{node})
}

// IDB implements UDF.
func (NodeSet) IDB(children [][]byte, _ types.ID, _ types.NodeID) []byte {
	return unionNodeSets(children)
}

// Rule implements UDF.
func (NodeSet) Rule(children [][]byte, _ string, _ types.NodeID) []byte {
	return unionNodeSets(children)
}

// Exceeds implements UDF: the union's cardinality is monotone in its
// inputs, so threshold queries ("fewer than T' unique nodes?") can stop
// early.
func (NodeSet) Exceeds(_ Ctx, children [][]byte, threshold int64) bool {
	return int64(len(decodeNodeSetUnion(children))) > threshold
}

func unionNodeSets(children [][]byte) []byte {
	return encodeNodeSet(decodeNodeSetUnion(children))
}

func decodeNodeSetUnion(children [][]byte) []types.NodeID {
	set := map[types.NodeID]bool{}
	for _, c := range children {
		for _, n := range DecodeNodeSet(c) {
			set[n] = true
		}
	}
	out := make([]types.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func encodeNodeSet(nodes []types.NodeID) []byte {
	b := make([]byte, 0, 4*len(nodes))
	for _, n := range nodes {
		b = binary.BigEndian.AppendUint32(b, uint32(int32(n)))
	}
	return b
}

// DecodeNodeSet parses a NODESET result into a sorted node list.
func DecodeNodeSet(payload []byte) []types.NodeID {
	out := make([]types.NodeID, 0, len(payload)/4)
	for i := 0; i+4 <= len(payload); i += 4 {
		out = append(out, types.NodeID(int32(binary.BigEndian.Uint32(payload[i:]))))
	}
	return out
}

// ---------------------------------------------------------------------------
// DERIVABILITY: boolean derivability test (§5.2.2, Table 3), optionally
// restricted to trusted base tuples (graph projection).

// Derivability tests whether the tuple is derivable; when Trusted is
// non-nil, only base tuples it accepts count (the paper's trust-domain
// projection).
type Derivability struct {
	Trusted func(t types.Tuple, node types.NodeID) bool
}

// Name implements UDF.
func (Derivability) Name() string { return "derivability" }

// EDB implements UDF.
func (u Derivability) EDB(t types.Tuple, _ types.ID, node types.NodeID) []byte {
	ok := u.Trusted == nil || u.Trusted(t, node)
	return encodeBool(ok)
}

// IDB implements UDF: OR.
func (Derivability) IDB(children [][]byte, _ types.ID, _ types.NodeID) []byte {
	for _, c := range children {
		if decodeBool(c) {
			return encodeBool(true)
		}
	}
	return encodeBool(false)
}

// Rule implements UDF: AND.
func (Derivability) Rule(children [][]byte, _ string, _ types.NodeID) []byte {
	if len(children) == 0 {
		return encodeBool(false)
	}
	for _, c := range children {
		if !decodeBool(c) {
			return encodeBool(false)
		}
	}
	return encodeBool(true)
}

// Exceeds implements UDF: a true IDB partial is final (threshold ignored).
func (Derivability) Exceeds(ctx Ctx, children [][]byte, _ int64) bool {
	if ctx != CtxIDB {
		return false
	}
	for _, c := range children {
		if decodeBool(c) {
			return true
		}
	}
	return false
}

func encodeBool(v bool) []byte {
	if v {
		return []byte{1}
	}
	return []byte{0}
}

func decodeBool(b []byte) bool { return len(b) == 1 && b[0] == 1 }

// DecodeBool parses a DERIVABILITY result.
func DecodeBool(payload []byte) bool { return decodeBool(payload) }

// udfByName sanity-checks known names (used in tests).
func udfByName(name string, alloc *algebra.VarAlloc) (UDF, error) {
	switch name {
	case "polynomial":
		return Polynomial{}, nil
	case "bdd":
		return BDDProv{Alloc: alloc}, nil
	case "derivations":
		return Derivations{}, nil
	case "nodeset":
		return NodeSet{}, nil
	case "derivability":
		return Derivability{}, nil
	}
	return nil, fmt.Errorf("provquery: unknown UDF %q", name)
}
