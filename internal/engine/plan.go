package engine

import (
	"fmt"

	"repro/internal/ndlog"
	"repro/internal/types"
)

// This file is the engine's PLAN layer: the compiled, immutable description
// of how one rule is evaluated incrementally. Compile (program.go) produces
// one delta plan per body-atom position of every rule; the executor
// (exec.go, driven by rounds.go) runs plans against a node's relations.
//
// The contract between the layers:
//
//   - A plan is immutable after Compile and shared by every node. All
//     mutable evaluation state (environments, scratch keys, matched entries,
//     probe tallies) lives in the executing Node.
//   - deltaBinds matches the triggering delta tuple into the environment;
//     steps then run in order. stepJoin probes the index it declared at
//     plan-build time (Program.declareIndex), by number, in the node's
//     index map; stepAssign/stepCond evaluate compiled expressions.
//   - Join lookup keys are built by appendLookupKey into caller scratch:
//     the fixed-width handle key of each key part, matching appendIndexKey
//     on the relation side, so the innermost probe loop allocates nothing.
//   - Join order is chosen once, here, and changes only how a delta's
//     derivations are enumerated, never which exist: the derivations of a
//     delta against fixed relation state form the same multiset under every
//     order, and RIDs hash the participating tuples, not the probe order.
//     joinorder_test.go runs every legal order of every rule with a choice
//     and requires the default plans' fixpoint state.

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

// index is a hash index Compile declared: positions of a stored predicate a
// join step binds, numbered program-wide to key the node's index map.
type index struct {
	num       int
	id        string // indexID(positions)
	positions []int
}

type planStep struct {
	kind stepKind

	// stepJoin
	atom     int
	indexID  string // indexID of the probed positions, rendered once at plan-build time
	keyParts []keyPart
	binds    []bindSpec
	joinID   int // program-wide join-step id; keys the node's probe tallies
	index    int // number of the probed index; -1 for an event atom
	table    int // tableID of the probed predicate; candidates must carry it

	// stepAssign / stepCond
	assignSlot int
	expr       exprCode
	srcTxt     string // source text of the term (explain output only)
}

// plan is a delta-evaluation strategy for one body atom position: bind the
// delta tuple, join the remaining atoms in a greedy bound-first order, and
// interleave assignments and conditions as soon as their inputs are bound.
type plan struct {
	deltaBinds []bindSpec
	steps      []planStep
}

// nonAtom is one non-atom body term (assignment or condition) awaiting
// placement; buildPlan flushes them as soon as their inputs are bound.
type nonAtom struct {
	assign *ndlog.Assign
	cond   *ndlog.Cond
}

// buildPlan constructs the delta plan for position k. order, when non-nil,
// lists the other body positions in the order they are joined; nil selects
// the default (pickNextAtom). Compile always passes nil: the join-order
// fence is the only caller that names an order.
func buildPlan(cr *CompiledRule, atoms []*ndlog.Atom, k int, order []int) (*plan, error) {
	slots := cr.slots
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
		var best int
		if order != nil {
			best = order[len(atoms)-1-len(remaining)]
		} else {
			best = pickNextAtom(atoms, slots, remaining, bound)
		}
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
		info := cr.prog.preds[a.Pred]
		st := planStep{
			kind: stepJoin, atom: best, indexID: indexID(indexPos),
			keyParts: keyParts, binds: binds, index: -1, table: info.tableID,
		}
		if !info.Event {
			st.index = cr.prog.declareIndex(info, st.indexID, indexPos)
		}
		pl.steps = append(pl.steps, st)
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

// pickNextAtom chooses the next body atom to join: the one with the most
// bound or constant positions, ties broken by body position.
func pickNextAtom(atoms []*ndlog.Atom, slots map[string]int, remaining map[int]bool,
	bound map[int]bool) int {

	best, bestBound := -1, -1
	for i, a := range atoms {
		if !remaining[i] {
			continue
		}
		nb := 0
		for _, arg := range a.Args {
			switch v := arg.(type) {
			case *ndlog.Var:
				if bound[slots[v.Name]] {
					nb++
				}
			case *ndlog.Const:
				nb++
			}
		}
		if nb > bestBound {
			best, bestBound = i, nb
		}
	}
	return best
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
