package engine

import (
	"fmt"

	"repro/internal/ndlog"
	"repro/internal/types"
)

// This file is the engine's PLAN layer: the compiled, immutable description
// of how one rule is evaluated incrementally. Compile (program.go) produces
// one delta plan per body-atom position of every rule; the executors
// (exec.go, driven by apply.go and rounds.go) run plans against a node's
// relations.
//
// The contract between the layers:
//
//   - A plan is immutable after Compile and shared by every node. All
//     mutable evaluation state (environments, scratch keys, matched tuples)
//     lives in the executing Node.
//   - deltaBinds matches the triggering delta tuple into the environment;
//     steps then run in order. stepJoin probes the index identified by
//     joinID (bound to the node's concrete index handles at construction
//     time), stepAssign/stepCond evaluate compiled expressions.
//   - Join lookup keys are built by appendLookupKey into caller scratch:
//     the fixed-width handle key of each key part, matching appendIndexKey
//     on the relation side, so the innermost probe loop allocates nothing.

// bindKind describes how one atom argument is treated during matching.
type bindKind uint8

const (
	bindNew   bindKind = iota // first occurrence: bind the slot
	bindCheck                 // already bound: compare
	bindConst                 // constant: compare
)

type bindSpec struct {
	kind bindKind
	slot int
	val  types.Value
}

type stepKind uint8

const (
	stepJoin stepKind = iota
	stepAssign
	stepCond
)

// keyPart contributes one value to a join-lookup key: either a constant or
// a bound slot.
type keyPart struct {
	isConst bool
	val     types.Value
	slot    int
}

type planStep struct {
	kind stepKind

	// stepJoin
	atom     int
	indexPos []int
	indexID  string // indexID(indexPos), rendered once at plan-build time
	keyParts []keyPart
	binds    []bindSpec
	joinID   int // program-wide join-step id; nodes bind it to an index handle

	// stepAssign / stepCond
	assignSlot int
	expr       exprCode
	srcTxt     string // source text of the term (explain output only)
	// condID is the term's rule-local index (its position among the rule's
	// non-atom body terms in source order); stepCond executions tally
	// pass/fail into Node.condStats[rule.condBase+condID]. Stable across
	// re-plans: rebuilt plans re-derive the same term numbering from the
	// rule source.
	condID int
}

// plan is a delta-evaluation strategy for one body atom position: bind the
// delta tuple, join the remaining atoms in a greedy bound-first order, and
// interleave assignments and conditions as soon as their inputs are bound.
type plan struct {
	deltaBinds []bindSpec
	steps      []planStep
}

// atomCostFn estimates the fan-out of probing atom a with the given
// bound/const positions — the planner's cost model (planner.go). A nil
// function selects the compile-time default order (most bound positions
// first, ties by body position).
type atomCostFn func(a *ndlog.Atom, boundPos []int) float64

// condSelectivity is the default credit the greedy pick grants per pending
// condition an atom's bindings would make evaluable: each unlocked
// condition is assumed to filter half the rows it sees. Once a condition
// has been executed condMinEvals times, the planner substitutes its
// measured pass rate (Node.condSelFor, planner.go) through the condSel
// lookup buildPlan threads into the search.
const condSelectivity = 0.5

// nonAtom is one non-atom body term (assignment or condition) awaiting
// placement; buildPlan flushes them as soon as their inputs are bound.
type nonAtom struct {
	assign *ndlog.Assign
	cond   *ndlog.Cond
}

// buildPlan constructs the delta plan for position k, ordering the joined
// atoms by cost (or the syntax-derived default when cost is nil). condSel,
// when non-nil, maps a rule-local term index to that condition's measured
// selectivity for the pushdown credit; nil applies the flat
// condSelectivity default.
func buildPlan(cr *CompiledRule, atoms []*ndlog.Atom, slots map[string]int, k int,
	cost atomCostFn, condSel func(int) float64) (*plan, error) {

	bound := map[int]bool{}
	pl := &plan{}

	// computeBinds derives bind specs for an atom given current bound set,
	// updating bound.
	computeBinds := func(a *ndlog.Atom) ([]bindSpec, error) {
		var binds []bindSpec
		for _, arg := range a.Args {
			switch v := arg.(type) {
			case *ndlog.Var:
				slot := slots[v.Name]
				if bound[slot] {
					binds = append(binds, bindSpec{kind: bindCheck, slot: slot})
				} else {
					binds = append(binds, bindSpec{kind: bindNew, slot: slot})
					bound[slot] = true
				}
			case *ndlog.Const:
				binds = append(binds, bindSpec{kind: bindConst, val: v.Val})
			default:
				return nil, fmt.Errorf("body atom %s: argument must be a variable or constant", a.Pred)
			}
		}
		return binds, nil
	}

	// Non-atom terms in source order: guards written before an assignment
	// must execute before it (e.g. f_size(L) > k guarding f_nth(L, k)).
	var terms []nonAtom
	for _, t := range cr.source.Body {
		switch v := t.(type) {
		case *ndlog.Assign:
			terms = append(terms, nonAtom{assign: v})
		case *ndlog.Cond:
			terms = append(terms, nonAtom{cond: v})
		}
	}
	termDone := make([]bool, len(terms))
	// flush appends the pending assignments and conditions whose
	// dependencies are bound, preserving source order; it retries until a
	// fixed point so chains (R=..., RID=f(R)) resolve.
	flush := func() error {
		for {
			progress := false
			for i, tm := range terms {
				if termDone[i] {
					continue
				}
				var deps []string
				if tm.assign != nil {
					deps = ndlog.Vars(tm.assign.Rhs)
				} else {
					deps = ndlog.Vars(tm.cond.Expr)
				}
				ready := true
				for _, dep := range deps {
					if !bound[slots[dep]] {
						ready = false
						break
					}
				}
				if !ready {
					continue
				}
				if tm.assign != nil {
					code, err := compileExpr(tm.assign.Rhs, slots)
					if err != nil {
						return err
					}
					pl.steps = append(pl.steps, planStep{
						kind: stepAssign, assignSlot: slots[tm.assign.Lhs], expr: code,
						srcTxt: tm.assign.Lhs + " = " + ndlog.ExprString(tm.assign.Rhs),
					})
					bound[slots[tm.assign.Lhs]] = true
				} else {
					code, err := compileExpr(tm.cond.Expr, slots)
					if err != nil {
						return err
					}
					pl.steps = append(pl.steps, planStep{
						kind: stepCond, expr: code, srcTxt: ndlog.ExprString(tm.cond.Expr),
						condID: i,
					})
				}
				termDone[i] = true
				progress = true
			}
			if !progress {
				return nil
			}
		}
	}

	var err error
	pl.deltaBinds, err = computeBinds(atoms[k])
	if err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}

	remaining := map[int]bool{}
	for i := range atoms {
		if i != k {
			remaining[i] = true
		}
	}
	for len(remaining) > 0 {
		best := pickNextAtom(atoms, slots, remaining, bound, cost, condSel, terms, termDone)
		a := atoms[best]
		delete(remaining, best)

		// Index on the bound/const positions; bind the rest.
		var indexPos []int
		var keyParts []keyPart
		for pos, arg := range a.Args {
			switch v := arg.(type) {
			case *ndlog.Var:
				if bound[slots[v.Name]] {
					indexPos = append(indexPos, pos)
					keyParts = append(keyParts, keyPart{slot: slots[v.Name]})
				}
			case *ndlog.Const:
				indexPos = append(indexPos, pos)
				keyParts = append(keyParts, keyPart{isConst: true, val: v.Val})
			}
		}
		binds, err := computeBinds(a)
		if err != nil {
			return nil, err
		}
		pl.steps = append(pl.steps, planStep{
			kind: stepJoin, atom: best, indexPos: indexPos, indexID: indexID(indexPos),
			keyParts: keyParts, binds: binds,
		})
		if err := flush(); err != nil {
			return nil, err
		}
	}

	for i, done := range termDone {
		if !done {
			if terms[i].assign != nil {
				return nil, fmt.Errorf("assignment %s never becomes evaluable", terms[i].assign.Lhs)
			}
			return nil, fmt.Errorf("condition %s never becomes evaluable", ndlog.ExprString(terms[i].cond.Expr))
		}
	}
	return pl, nil
}

// pickNextAtom chooses the next body atom to join. With no cost model the
// compile-time default applies: most bound/const positions first, ties by
// body position (the pre-planner behaviour, kept as the deterministic
// fallback). With a cost model, the estimated fan-out of probing the atom
// is discounted by each pending condition the atom's bindings would unlock
// — its measured selectivity through condSel when available, the flat
// condSelectivity otherwise — and the lowest cost wins; ties break toward
// more bound positions, then lower body position. The ascending iteration
// plus strict-improvement replacement makes the choice deterministic for
// any cost function.
func pickNextAtom(atoms []*ndlog.Atom, slots map[string]int, remaining map[int]bool,
	bound map[int]bool, cost atomCostFn, condSel func(int) float64,
	terms []nonAtom, termDone []bool) int {

	best := -1
	bestCost := 0.0
	bestBound := -1
	for i := range atoms {
		if !remaining[i] {
			continue
		}
		a := atoms[i]
		var boundPos []int
		for pos, arg := range a.Args {
			switch v := arg.(type) {
			case *ndlog.Var:
				if bound[slots[v.Name]] {
					boundPos = append(boundPos, pos)
				}
			case *ndlog.Const:
				boundPos = append(boundPos, pos)
			}
		}
		if cost == nil {
			if len(boundPos) > bestBound {
				best, bestBound = i, len(boundPos)
			}
			continue
		}
		c := cost(a, boundPos)
		for _, ci := range readyConds(a, slots, bound, terms, termDone) {
			if condSel != nil {
				c *= condSel(ci)
			} else {
				c *= condSelectivity
			}
		}
		if best == -1 || c < bestCost ||
			(c == bestCost && len(boundPos) > bestBound) {
			best, bestCost, bestBound = i, c, len(boundPos)
		}
	}
	return best
}

// readyConds returns the indexes of pending conditions that would become
// evaluable if atom a's variables were additionally bound — the pushdown
// credit for picking a early.
func readyConds(a *ndlog.Atom, slots map[string]int, bound map[int]bool,
	terms []nonAtom, termDone []bool) []int {

	var wouldBind map[int]bool
	var ready []int
	for i, tm := range terms {
		if termDone[i] || tm.cond == nil {
			continue
		}
		if wouldBind == nil {
			wouldBind = make(map[int]bool, len(a.Args))
			for _, arg := range a.Args {
				if v, ok := arg.(*ndlog.Var); ok {
					wouldBind[slots[v.Name]] = true
				}
			}
		}
		ok := true
		gains := false
		for _, dep := range ndlog.Vars(tm.cond.Expr) {
			s := slots[dep]
			if bound[s] {
				continue
			}
			if wouldBind[s] {
				gains = true
				continue
			}
			ok = false
			break
		}
		if ok && gains {
			ready = append(ready, i)
		}
	}
	return ready
}

// bindTuple matches a tuple against bind specs, writing new bindings into
// env; it reports whether the match succeeds.
func bindTuple(binds []bindSpec, t types.Tuple, env []types.Value) bool {
	if len(binds) != len(t.Args) {
		return false
	}
	for i, b := range binds {
		switch b.kind {
		case bindNew:
			env[b.slot] = t.Args[i]
		case bindCheck:
			if !env[b.slot].Equal(t.Args[i]) {
				return false
			}
		case bindConst:
			if !b.val.Equal(t.Args[i]) {
				return false
			}
		}
	}
	return true
}

// appendLookupKey builds the join-probe key for the step into b: the
// fixed-width handle key of each key part (matching appendIndexKey on the
// index side). Probes pass the node's scratch buffer so the innermost join
// loop allocates nothing, and interned handles mean no string or digest
// bytes are copied per probe.
func (s *planStep) appendLookupKey(b []byte, env []types.Value) []byte {
	for _, p := range s.keyParts {
		if p.isConst {
			b = p.val.AppendKey(b)
		} else {
			b = env[p.slot].AppendKey(b)
		}
	}
	return b
}
