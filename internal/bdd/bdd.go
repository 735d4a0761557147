// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// in the style of Bryant's symbolic boolean manipulation survey, which the
// paper uses to store condensed ("absorption") provenance.
//
// A BDD over base-tuple variables encodes the boolean derivability
// expression of a tuple: variables are base tuples (or nodes / trust
// domains, depending on granularity), AND corresponds to joins, OR to
// alternative derivations. Because ROBDDs are canonical, boolean absorption
// (a·(a+b) = a) happens by construction, which is exactly the compression
// the paper's §6.3 relies on.
package bdd

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/types"
)

// Ref identifies a BDD node inside its Manager. The terminals False and
// True are Refs 0 and 1.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

// Var names a variable: the Ord-th base tuple that node Node, the tuple's
// owner, numbered. Only the owner creates its tuples' variables, so no
// numbering is shared between nodes. Variables are ordered by (Node, Ord).
type Var struct {
	Node types.NodeID
	Ord  uint32
}

// String renders v as x<node>.<ordinal>.
func (v Var) String() string { return fmt.Sprintf("x%d.%d", v.Node, v.Ord) }

// level packs v into a node's level: Node in the high half, Ord in the low,
// so level order is variable order.
func (v Var) level() uint64 { return uint64(v.Node)<<32 | uint64(v.Ord) }

func varAt(level uint64) Var { return Var{Node: types.NodeID(level >> 32), Ord: uint32(level)} }

type node struct {
	level  uint64 // Var.level; lower levels are closer to the root
	lo, hi Ref
}

type applyKey struct {
	op   uint8
	a, b Ref
}

const (
	opAnd uint8 = iota
	opOr
)

// Manager owns the shared node table for a family of BDDs. Managers are not
// safe for concurrent use; each engine node owns its own manager.
type Manager struct {
	nodes  []node
	unique map[node]Ref
	apply  map[applyKey]Ref
	notMem map[Ref]Ref
}

// New creates an empty manager containing only the terminal nodes.
func New() *Manager {
	m := &Manager{
		unique: make(map[node]Ref),
		apply:  make(map[applyKey]Ref),
		notMem: make(map[Ref]Ref),
	}
	// Reserve indices 0 and 1 for the terminals. Their level is a sentinel
	// greater than any variable level so ordering comparisons stay simple.
	m.nodes = append(m.nodes, node{level: terminalLevel}, node{level: terminalLevel})
	return m
}

// terminalLevel exceeds the level of every variable (whose Node is a
// non-negative int32).
const terminalLevel = uint64(1) << 63

func (m *Manager) mk(level uint64, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	n := node{level: level, lo: lo, hi: hi}
	if r, ok := m.unique[n]; ok {
		return r
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, n)
	m.unique[n] = r
	return r
}

// Var returns the BDD for the single variable v (v.Node must be >= 0).
func (m *Manager) Var(v Var) Ref {
	if v.Node < 0 {
		panic("bdd: negative variable node")
	}
	return m.mk(v.level(), False, True)
}

func (m *Manager) level(r Ref) uint64 { return m.nodes[r].level }

// And returns the conjunction of a and b.
func (m *Manager) And(a, b Ref) Ref {
	switch {
	case a == False || b == False:
		return False
	case a == True:
		return b
	case b == True:
		return a
	case a == b:
		return a
	}
	if a > b {
		a, b = b, a
	}
	k := applyKey{opAnd, a, b}
	if r, ok := m.apply[k]; ok {
		return r
	}
	r := m.combine(opAnd, a, b)
	m.apply[k] = r
	return r
}

// Or returns the disjunction of a and b.
func (m *Manager) Or(a, b Ref) Ref {
	switch {
	case a == True || b == True:
		return True
	case a == False:
		return b
	case b == False:
		return a
	case a == b:
		return a
	}
	if a > b {
		a, b = b, a
	}
	k := applyKey{opOr, a, b}
	if r, ok := m.apply[k]; ok {
		return r
	}
	r := m.combine(opOr, a, b)
	m.apply[k] = r
	return r
}

func (m *Manager) combine(op uint8, a, b Ref) Ref {
	la, lb := m.level(a), m.level(b)
	top := la
	if lb < top {
		top = lb
	}
	alo, ahi := a, a
	if la == top {
		alo, ahi = m.nodes[a].lo, m.nodes[a].hi
	}
	blo, bhi := b, b
	if lb == top {
		blo, bhi = m.nodes[b].lo, m.nodes[b].hi
	}
	var lo, hi Ref
	if op == opAnd {
		lo, hi = m.And(alo, blo), m.And(ahi, bhi)
	} else {
		lo, hi = m.Or(alo, blo), m.Or(ahi, bhi)
	}
	return m.mk(top, lo, hi)
}

// Not returns the negation of a.
func (m *Manager) Not(a Ref) Ref {
	switch a {
	case False:
		return True
	case True:
		return False
	}
	if r, ok := m.notMem[a]; ok {
		return r
	}
	n := m.nodes[a]
	r := m.mk(n.level, m.Not(n.lo), m.Not(n.hi))
	m.notMem[a] = r
	return r
}

// Restrict fixes variable v to the constant val inside a and returns the
// simplified BDD. It implements the paper's trust-policy evaluation: setting
// an untrusted base tuple's variable to false.
func (m *Manager) Restrict(a Ref, v Var, val bool) Ref {
	lv := v.level()
	mem := make(map[Ref]Ref)
	var rec func(r Ref) Ref
	rec = func(r Ref) Ref {
		n := m.nodes[r]
		if n.level > lv {
			return r // terminals or variables ordered after v
		}
		if got, ok := mem[r]; ok {
			return got
		}
		var out Ref
		if n.level == lv {
			if val {
				out = n.hi
			} else {
				out = n.lo
			}
		} else {
			out = m.mk(n.level, rec(n.lo), rec(n.hi))
		}
		mem[r] = out
		return out
	}
	return rec(a)
}

// Eval evaluates the BDD under the given assignment (missing variables
// default to false).
func (m *Manager) Eval(a Ref, assign map[Var]bool) bool {
	for a != False && a != True {
		n := m.nodes[a]
		if assign[varAt(n.level)] {
			a = n.hi
		} else {
			a = n.lo
		}
	}
	return a == True
}

// Size reports the number of nodes reachable from r, excluding terminals.
// It is the size metric used when measuring condensed-provenance bandwidth.
func (m *Manager) Size(r Ref) int { return len(m.topo(r)) }

// Support returns the sorted set of variables appearing in r.
func (m *Manager) Support(r Ref) []Var {
	var levels []uint64
	for _, x := range m.topo(r) {
		levels = append(levels, m.nodes[x].level)
	}
	slices.Sort(levels)
	levels = slices.Compact(levels)
	out := make([]Var, len(levels))
	for i, l := range levels {
		out[i] = varAt(l)
	}
	return out
}

// AnySat returns one satisfying assignment of r as a map from variable to
// value, or ok=false when r is unsatisfiable. Variables absent from the map
// are don't-cares.
func (m *Manager) AnySat(r Ref) (assign map[Var]bool, ok bool) {
	if r == False {
		return nil, false
	}
	assign = map[Var]bool{}
	for r != True {
		n := m.nodes[r]
		if n.hi != False {
			assign[varAt(n.level)] = true
			r = n.hi
		} else {
			assign[varAt(n.level)] = false
			r = n.lo
		}
	}
	return assign, true
}

// String renders r as a sum-of-products boolean expression, one product per
// path to True, with variables printed as Var.String does; it is intended for
// tests and small examples.
func (m *Manager) String(r Ref) string {
	switch r {
	case False:
		return "0"
	case True:
		return "1"
	}
	var terms []string
	// A path meets its variables in order, so each product is sorted.
	var rec func(x Ref, lits []string)
	rec = func(x Ref, lits []string) {
		switch x {
		case False:
			return
		case True:
			terms = append(terms, strings.Join(lits, "*"))
			return
		}
		n := m.nodes[x]
		v := varAt(n.level).String()
		lits = lits[:len(lits):len(lits)]
		rec(n.lo, append(lits, "!"+v))
		rec(n.hi, append(lits, v))
	}
	rec(r, nil)
	return strings.Join(terms, " + ")
}
