package algebra

import (
	"slices"

	"repro/internal/bdd"
	"repro/internal/types"
)

// Semiring supplies the operations needed to evaluate a provenance
// polynomial in a particular domain. It mirrors the paper's three
// user-defined functions: FromBase plays f_pEDB, Add plays the "+" of
// f_pIDB, and Mul plays the "·" of f_pRULE.
type Semiring[T any] struct {
	Zero     func() T
	One      func() T
	FromBase func(Base) T
	Add      func(T, T) T
	Mul      func(T, T) T
}

// Eval folds the polynomial in the given semiring.
func Eval[T any](e *Expr, s Semiring[T]) T {
	switch e.Op {
	case OpZero:
		return s.Zero()
	case OpOne:
		return s.One()
	case OpBase:
		return s.FromBase(e.Base)
	case OpSum:
		acc := s.Zero()
		for _, k := range e.Kids {
			acc = s.Add(acc, Eval(k, s))
		}
		return acc
	case OpProd:
		acc := s.One()
		for _, k := range e.Kids {
			acc = s.Mul(acc, Eval(k, s))
		}
		return acc
	}
	return s.Zero()
}

// Counting is the natural-numbers semiring: it computes the number of
// distinct derivations of a tuple (the paper's #Derivations query).
func Counting() Semiring[int64] {
	return Semiring[int64]{
		Zero:     func() int64 { return 0 },
		One:      func() int64 { return 1 },
		FromBase: func(Base) int64 { return 1 },
		Add:      func(a, b int64) int64 { return a + b },
		Mul:      func(a, b int64) int64 { return a * b },
	}
}

// Boolean is the two-element semiring used for derivability tests.
func Boolean() Semiring[bool] {
	return Semiring[bool]{
		Zero:     func() bool { return false },
		One:      func() bool { return true },
		FromBase: func(Base) bool { return true },
		Add:      func(a, b bool) bool { return a || b },
		Mul:      func(a, b bool) bool { return a && b },
	}
}

// DerivableGiven evaluates derivability when only the base tuples for which
// trusted returns true may be used — the paper's trust-policy projection.
func DerivableGiven(e *Expr, trusted func(Base) bool) bool {
	s := Boolean()
	s.FromBase = trusted
	return Eval(e, s)
}

// NodeSet is the semiring of the nodes holding the base tuples of some
// derivation (the paper's first customization example), as ascending
// slices. Both operations are union, except that the product annihilates on
// Zero: nil, the node set of no derivation, as distinct from One, the empty
// set of the empty product. A join with an underivable input derives
// nothing, so it involves no node.
func NodeSet() Semiring[[]types.NodeID] {
	return Semiring[[]types.NodeID]{
		Zero:     func() []types.NodeID { return nil },
		One:      func() []types.NodeID { return []types.NodeID{} },
		FromBase: func(b Base) []types.NodeID { return []types.NodeID{b.Node} },
		Add:      unionNodes,
		Mul: func(a, b []types.NodeID) []types.NodeID {
			if a == nil || b == nil {
				return nil
			}
			return unionNodes(a, b)
		},
	}
}

// unionNodes unites two ascending node sets; nil is its identity.
func unionNodes(a, b []types.NodeID) []types.NodeID {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := append(append(make([]types.NodeID, 0, len(a)+len(b)), a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// SortedNodes evaluates the NodeSet semiring: the participating nodes in
// ascending order.
func SortedNodes(e *Expr) []types.NodeID { return Eval(e, NodeSet()) }

// MinTrust evaluates the tropical-style trust semiring: every base tuple has
// a trust value in [0,100]; a derivation's trust is the minimum over its
// joined inputs, and a tuple's trust is the maximum over its alternative
// derivations.
func MinTrust(values func(Base) int64) Semiring[int64] {
	return Semiring[int64]{
		Zero:     func() int64 { return 0 },
		One:      func() int64 { return 100 },
		FromBase: values,
		Add: func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		},
		Mul: func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		},
	}
}

// Ring is a semiring with its wire codec: the form in which a provenance
// representation's values travel between nodes. Decode accepts exactly what
// Encode emits, as a whole buffer: trailing bytes are rejected.
type Ring[T any] struct {
	Semiring[T]
	Encode func(T) []byte
	Decode func([]byte) (T, bool)
}

// Payload is a BDD-ring value, a node of the ring's manager. ROBDDs are
// canonical, so equal handles of one ring are equal functions.
type Payload = bdd.Ref

// BDD is the boolean-function ring over manager m, whose variable for a base
// tuple is the one name gives it: the BDD query's representation and value
// mode's payloads. Its values are the absorption-condensed provenance of
// §6.3: a·(a+b) collapses to a. FromBase calls name only where the base
// tuple lives; name numbers it in its owner's store
// (provenance.Store.BaseVar).
func BDD(m *bdd.Manager, name func(Base) bdd.Var) Ring[Payload] {
	return Ring[Payload]{
		Semiring: Semiring[Payload]{
			Zero:     func() Payload { return bdd.False },
			One:      func() Payload { return bdd.True },
			FromBase: func(b Base) Payload { return m.Var(name(b)) },
			Add:      m.Or,
			Mul:      m.And,
		},
		Encode: func(r Payload) []byte { return m.Encode(r, nil) },
		Decode: func(b []byte) (Payload, bool) {
			r, n, err := m.Decode(b)
			return r, err == nil && n == len(b)
		},
	}
}
