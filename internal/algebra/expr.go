// Package algebra implements provenance polynomials (provenance semirings,
// Green et al. PODS 2007) as used by the paper's POLYNOMIAL query
// customization, and the semirings whose homomorphic images of them are the
// other representations of §5.2: Counting (#DERIVATIONS), NodeSet (NODESET),
// Boolean (DERIVABILITY) and BDD (condensed provenance). Those semirings are
// the one definition of how each representation combines: the query
// processor's UDFs fold wire payloads with them, and Eval folds a polynomial
// with them.
package algebra

import (
	"repro/internal/types"
	"sort"
	"strings"
)

// Op enumerates polynomial node operators.
type Op uint8

// Polynomial operators: a base-tuple literal, an n-ary sum ("+", union of
// alternative derivations) and an n-ary product ("·", join of rule inputs).
const (
	OpBase Op = iota
	OpSum
	OpProd
	OpZero // the empty sum: no derivation
	OpOne  // the empty product: trivially derivable
)

// Base identifies a base-tuple literal in a polynomial: the tuple's VID plus
// a human-readable label (the tuple's rendered form) and the node at which
// it resides (used by node-level granularity and the NodeSet semiring).
type Base struct {
	VID   types.ID
	Label string
	Node  types.NodeID
}

// Expr is an immutable provenance polynomial node.
//
// Ann carries the paper's location/rule annotations: f_pIDB annotates sums
// with "@loc" and f_pRULE annotates products with "rule@loc". Annotations
// are preserved in the string form and the wire encoding but are ignored by
// semiring evaluation.
type Expr struct {
	Op   Op
	Base Base    // valid when Op == OpBase
	Kids []*Expr // valid when Op is OpSum or OpProd
	Ann  string
}

// Zero is the polynomial with no derivations.
func Zero() *Expr { return &Expr{Op: OpZero} }

// One is the neutral element of multiplication.
func One() *Expr { return &Expr{Op: OpOne} }

// NewBase returns a base-tuple literal.
func NewBase(b Base) *Expr { return &Expr{Op: OpBase, Base: b} }

// Sum combines alternative derivations. Zero children vanish; a sum of one
// child collapses to that child (annotation preserved only when present).
func Sum(ann string, kids ...*Expr) *Expr {
	flat := make([]*Expr, 0, len(kids))
	for _, k := range kids {
		if k == nil || k.Op == OpZero {
			continue
		}
		flat = append(flat, k)
	}
	switch len(flat) {
	case 0:
		return Zero()
	case 1:
		if ann == "" {
			return flat[0]
		}
	}
	return &Expr{Op: OpSum, Kids: flat, Ann: ann}
}

// Prod combines rule inputs with a join. One children vanish; a product of
// one child collapses to that child when unannotated; any Zero child makes
// the product Zero.
func Prod(ann string, kids ...*Expr) *Expr {
	flat := make([]*Expr, 0, len(kids))
	for _, k := range kids {
		if k == nil || k.Op == OpOne {
			continue
		}
		if k.Op == OpZero {
			return Zero()
		}
		flat = append(flat, k)
	}
	switch len(flat) {
	case 0:
		return One()
	case 1:
		if ann == "" {
			return flat[0]
		}
	}
	return &Expr{Op: OpProd, Kids: flat, Ann: ann}
}

// String renders the polynomial in the paper's notation, e.g.
// <sp2@b>(β·γ) + α.
func (e *Expr) String() string {
	if e == nil {
		return "0"
	}
	var render func(e *Expr, parent Op) string
	render = func(e *Expr, parent Op) string {
		switch e.Op {
		case OpZero:
			return "0"
		case OpOne:
			return "1"
		case OpBase:
			return e.Base.Label
		case OpSum, OpProd:
			sep := " + "
			if e.Op == OpProd {
				sep = "·"
			}
			parts := make([]string, len(e.Kids))
			for i, k := range e.Kids {
				parts[i] = render(k, e.Op)
			}
			s := strings.Join(parts, sep)
			needParens := e.Ann != "" || (parent == OpProd && e.Op == OpSum)
			if needParens {
				s = "(" + s + ")"
			}
			if e.Ann != "" {
				s = "<" + e.Ann + ">" + s
			}
			return s
		}
		return "?"
	}
	return render(e, OpBase)
}

// BaseSet returns the distinct base literals of the polynomial, ordered by
// VID for determinism.
func (e *Expr) BaseSet() []Base {
	seen := map[types.ID]Base{}
	var rec func(*Expr)
	rec = func(x *Expr) {
		if x == nil {
			return
		}
		if x.Op == OpBase {
			seen[x.Base.VID] = x.Base
			return
		}
		for _, k := range x.Kids {
			rec(k)
		}
	}
	rec(e)
	out := make([]Base, 0, len(seen))
	for _, b := range seen {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		return string(out[i].VID[:]) < string(out[j].VID[:])
	})
	return out
}

// Depth reports the tree height (base literals have depth 1).
func (e *Expr) Depth() int {
	if e == nil || e.Op == OpZero || e.Op == OpOne || e.Op == OpBase {
		return 1
	}
	max := 0
	for _, k := range e.Kids {
		if d := k.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// NumNodes reports the number of nodes in the expression tree.
func (e *Expr) NumNodes() int {
	if e == nil {
		return 0
	}
	n := 1
	for _, k := range e.Kids {
		n += k.NumNodes()
	}
	return n
}
