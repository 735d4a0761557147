package engine

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/ndlog"
)

// This file is the decision half of the engine's PLANNER layer (stats.go is
// the measurement half): a cost model over live statistics and the re-plan
// pass that swaps a node's active plan set at driver quiescence points.
//
// The planning contract, inherited from the PR 4/5 fences:
//
//   - Plan choice may change WORK ORDER, never FIXPOINT STATE. A join order
//     permutes how each delta's matching derivations are enumerated, but
//     the set of derivations — and therefore relations, provenance rows
//     and DRed staging decisions — is order-independent. The
//     planner-equivalence fences (planner_test.go) pin this bit-exactly.
//   - Swaps happen only between evaluation waves: Settle's release loop,
//     the Scheduler's drained-round check, the simulator's OnIdle hook and
//     deploy.WaitFixpoint all call Replan exactly when no delta is queued
//     and no fire phase is running. Never mid-wave — a mid-wave swap would
//     make emission order depend on when stats crossed a threshold.
//   - Rebuilt plans reuse the compile-time joinIDs of their (rule, pos) in
//     step order. Every legal plan of a position has exactly the same
//     number of join steps, so the program-wide joinID space — which sizes
//     Node.joinIdx and Node.joinStats — never changes.
//
// The cost model is deliberately simple: the estimated fan-out of probing
// an atom on its bound positions, preferring measured hits/probes once a
// join step has seen enough probes and falling back to card/distinct-keys
// before that, with a per-condition credit for each condition the pick
// would unlock (plan.go pickNextAtom) — the condition's measured pass rate
// once it has executed condMinEvals times, the flat condSelectivity before
// that. Greedy min-fan-out with deterministic tie-breaks keeps planning
// O(atoms²) per rule and reproducible.

// replanMinDeltas gates re-planning on drift: a node re-plans only after
// this many further deltas since its last attempt, so quiescence points in
// a steady state don't pay repeated planning passes.
const replanMinDeltas = 1024

// fanoutMinProbes is the confidence threshold for preferring a join step's
// measured fan-out over the cardinality estimate.
const fanoutMinProbes = 16

// condMinEvals is the confidence threshold for preferring a condition's
// measured pass rate over the flat condSelectivity credit.
const condMinEvals = 16

// Replan re-evaluates the node's plan choices against current statistics,
// swapping the active plan set when the cost model prefers a different join
// order. It must be called only at quiescence (no queued deltas, no fire
// phase in flight) — every driver's release loop does so. No-op unless the
// program has a rule worth planning (≥ 3 body atoms) and enough deltas have
// flowed since the last attempt.
func (n *Node) Replan() { n.replan(false) }

// ForceReplan re-plans immediately, bypassing the drift gate. Callers owe the
// same quiescence guarantee as Replan (no queued deltas, no fire phase in
// flight). It reports whether any plan changed — equivalence fences use it to
// assert a perturbation actually flipped a join order.
func (n *Node) ForceReplan() bool { return n.replan(true) }

// replan is Replan with a force override (tests and the explain path re-plan
// regardless of drift). It reports whether any plan changed.
func (n *Node) replan(force bool) bool {
	if n.Err != nil || n.NoReplan || !n.Prog.planable {
		return false
	}
	d := n.DeltasProcessed()
	if !force && d-n.lastReplanDeltas < replanMinDeltas {
		return false
	}
	n.lastReplanDeltas = d
	snap := n.snapshotStats()
	cost := n.costPicker(snap)
	changed := false
	for _, cr := range n.Prog.Rules {
		if !cr.planable() {
			continue
		}
		atoms := cr.source.BodyAtoms()
		condSel := n.condSelFor(cr)
		for k := range atoms {
			pl, err := buildPlan(cr, atoms, cr.slots, k, cost, condSel)
			if err != nil {
				// The default plan compiled, so a rebuild cannot fail; treat
				// a failure defensively by keeping the current plan.
				continue
			}
			reuseJoinIDs(cr.plans[k], pl)
			if !samePlanShape(n.plans[cr.idx][k], pl) {
				n.plans[cr.idx][k] = pl
				changed = true
			}
		}
	}
	if changed {
		n.rebindAfterSwap()
	}
	return changed
}

// costPicker builds the atom-cost function for one planning pass: estimated
// probe fan-out under the snapshot, filtered through the test perturbation
// hook when set.
func (n *Node) costPicker(snap *statsSnapshot) atomCostFn {
	return func(a *ndlog.Atom, boundPos []int) float64 {
		est := n.estFanout(snap, a.Pred, boundPos)
		if n.statHook != nil {
			est = n.statHook(a.Pred, indexID(boundPos), est)
		}
		return est
	}
}

// condSelFor returns the measured-selectivity lookup for one rule: term
// index -> the condition's accumulated pass rate once condMinEvals
// evaluations have been tallied, the flat condSelectivity before that.
// Rates clamp to [0.01, 1] so a never-passing condition cannot zero a
// plan's cost and erase every other factor from the comparison.
func (n *Node) condSelFor(cr *CompiledRule) func(int) float64 {
	return func(term int) float64 {
		cs := n.condAcc[cr.condBase+term]
		if cs.evals < condMinEvals {
			return condSelectivity
		}
		sel := float64(cs.passes) / float64(cs.evals)
		if sel < 0.01 {
			sel = 0.01
		}
		if sel > 1 {
			sel = 1
		}
		return sel
	}
}

// estFanout estimates how many candidates one probe of pred on the given
// bound positions returns: the measured hits/probes of a join step with the
// same probe target once confident, card/distinct-keys otherwise.
func (n *Node) estFanout(snap *statsSnapshot, pred string, boundPos []int) float64 {
	if info := n.Prog.Pred(pred); info != nil && info.Event {
		return 0 // events never materialize: the probe matches nothing
	}
	key := statKey{pred: pred, idx: indexID(boundPos)}
	if js, ok := snap.fanout[key]; ok && js.probes >= fanoutMinProbes {
		return float64(js.hits) / float64(js.probes)
	}
	card := float64(snap.card[pred])
	if len(boundPos) == 0 {
		return card
	}
	if dk := n.distinctKeys(pred, boundPos); dk > 0 {
		return card / float64(dk)
	}
	return card
}

// reuseJoinIDs copies the compile-time plan's joinIDs onto the rebuilt
// plan's join steps in step order, keeping the program-wide joinID space —
// and everything sized by it — stable across swaps.
func reuseJoinIDs(def, pl *plan) {
	ids := make([]int, 0, len(def.steps))
	for i := range def.steps {
		if def.steps[i].kind == stepJoin {
			ids = append(ids, def.steps[i].joinID)
		}
	}
	j := 0
	for i := range pl.steps {
		if pl.steps[i].kind == stepJoin {
			pl.steps[i].joinID = ids[j]
			j++
		}
	}
}

// samePlanShape reports whether two plans of the same (rule, pos) make the
// same choices: join order, probe positions and pushdown placement.
func samePlanShape(a, b *plan) bool {
	if len(a.steps) != len(b.steps) {
		return false
	}
	for i := range a.steps {
		x, y := &a.steps[i], &b.steps[i]
		if x.kind != y.kind {
			return false
		}
		if x.kind == stepJoin {
			if x.atom != y.atom || x.indexID != y.indexID {
				return false
			}
		} else if x.srcTxt != y.srcTxt {
			return false
		}
	}
	return true
}

// rebindAfterSwap re-resolves the node's join handles against the new
// active plan set: stale indexes (probed by no plan any more) are dropped so
// relations stop paying their maintenance, needed ones are created with the
// deterministic backfill, and the joinID→statKey mapping is rebuilt so
// future tallies fold under the new probe targets. Runs only at quiescence.
func (n *Node) rebindAfterSwap() {
	keep := make(map[string]map[string]bool)
	for _, cr := range n.Prog.Rules {
		for _, pl := range n.plans[cr.idx] {
			for i := range pl.steps {
				st := &pl.steps[i]
				if st.kind != stepJoin {
					continue
				}
				a := cr.atoms[st.atom]
				if a.event {
					continue
				}
				m := keep[a.pred]
				if m == nil {
					m = make(map[string]bool)
					keep[a.pred] = m
				}
				m[st.indexID] = true
			}
		}
	}
	for pred, m := range keep {
		if rel := n.lookup(pred); rel != nil {
			rel.dropIndexesExcept(m)
		}
	}
	n.bindPlans()
	n.rebuildJoinKeys()
}

// rebuildJoinKeys refreshes the joinID → (predicate, index) mapping from the
// active plan set.
func (n *Node) rebuildJoinKeys() {
	if n.joinKeys == nil {
		n.joinKeys = make([]statKey, n.Prog.numJoins)
	}
	for i := range n.joinKeys {
		n.joinKeys[i] = statKey{}
	}
	for _, cr := range n.Prog.Rules {
		for _, pl := range n.plans[cr.idx] {
			for i := range pl.steps {
				st := &pl.steps[i]
				if st.kind != stepJoin {
					continue
				}
				a := cr.atoms[st.atom]
				if a.event {
					continue
				}
				n.joinKeys[st.joinID] = statKey{pred: a.pred, idx: st.indexID}
			}
		}
	}
}

// ExplainPlans writes the node's active plan for every rule position — join
// order, probe indexes, pushed assignments/conditions — followed by the
// statistics snapshot that justifies the current choices. Output is fully
// deterministic: rules in program order, steps in execution order, snapshot
// maps in sorted key order.
func (n *Node) ExplainPlans(w io.Writer) {
	snap := n.snapshotStats()
	for _, cr := range n.Prog.Rules {
		fmt.Fprintf(w, "rule %s: %s\n", cr.Label, cr.source.String())
		if cr.agg != nil {
			fmt.Fprintf(w, "  aggregate over %s (single-atom; not planned)\n", cr.atoms[0].pred)
			continue
		}
		for pos, pl := range n.plans[cr.idx] {
			fmt.Fprintf(w, "  delta %s (pos %d):", cr.atoms[pos].pred, pos)
			if cr.planable() {
				fmt.Fprint(w, " [planned]")
			} else {
				fmt.Fprint(w, " [default]")
			}
			fmt.Fprintln(w)
			for _, st := range pl.steps {
				switch st.kind {
				case stepJoin:
					a := cr.atoms[st.atom]
					fmt.Fprintf(w, "    join %s idx[%s] est=%.3g\n",
						a.pred, st.indexID, n.estFanout(snap, a.pred, st.indexPos))
				case stepCond:
					fmt.Fprintf(w, "    cond %s sel=%.3g\n", st.srcTxt, n.condSelFor(cr)(st.condID))
				case stepAssign:
					fmt.Fprintf(w, "    assign %s\n", st.srcTxt)
				}
			}
		}
	}
	fmt.Fprintln(w, "stats:")
	preds := make([]string, 0, len(snap.card))
	for p := range snap.card {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		fmt.Fprintf(w, "  %s: card=%d churn=%d\n", p, snap.card[p], snap.churn[p])
	}
	keys := make([]statKey, 0, len(snap.fanout))
	for k := range snap.fanout {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pred != keys[j].pred {
			return keys[i].pred < keys[j].pred
		}
		return keys[i].idx < keys[j].idx
	})
	for _, k := range keys {
		js := snap.fanout[k]
		fmt.Fprintf(w, "  probe %s idx[%s]: probes=%d hits=%d fanout=%.3g\n",
			k.pred, k.idx, js.probes, js.hits, float64(js.hits)/float64(js.probes))
	}
}
