package engine

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/provenance"
	"repro/internal/types"
)

// This file is the EXECUTION half of the evaluation-state layer: evaluating a
// rule's delta plan for one triggering tuple and emitting head derivations.
// It is every rule's one firing path: an aggregate rule's plan binds its one
// body atom and runs its assignments and conditions like any other, and its
// last step hands the bound body to the rule's group (aggInput, agg.go).
// All intermediate state (environment, matched entries, lookup keys) lives in
// the round scratch and the pool's key buffer — one rule firing performs no
// slice allocation of its own, which the hotpath_test.go fences pin.
//
// The fire phase runs against frozen state that includes the whole round's
// batch. To fire each joint derivation exactly once, a delta at body
// position p joins atoms q < p against NEW state (end of round) and atoms
// q > p against OLD state (start of round) — the standard batched semi-naïve
// decomposition
//
//	ΔH = Σ_p  A₁ⁿᵉʷ ⋈ … ⋈ A₍p₋₁₎ⁿᵉʷ ⋈ ΔA_p ⋈ A₍p₊₁₎ᵒˡᵈ ⋈ … ⋈ A_kᵒˡᵈ,
//
// which telescopes to the exact net change whatever the batch order. Event
// deltas (never materialized, so never probed) always see NEW state: an
// event observes the batch it arrived with.

// firePlan evaluates the delta plan of (rule, pos) for the delta of the
// scratch's fireTuple — deltaEntry's tuple, or the event's — and emits head
// derivations or, for an aggregate rule, group updates.
//
//exspan:hotpath
func (n *Node) firePlan(rule *CompiledRule, pos int, sign int8, deltaEntry *entry) {
	sc := n.sc
	pl := rule.plans[pos]
	env := sc.envBuf[:rule.numVars]
	if !bindTuple(pl.deltaBinds, sc.fireTuple, env) {
		return
	}
	ments := sc.entBuf[:len(rule.atoms)]
	clear(ments)
	ments[pos] = deltaEntry
	sc.fireAtomPos = pos
	n.execPlan(rule, pl, 0, sign, env, ments)
}

// execPlan runs plan steps from step onward. It is a plain recursive method
// rather than a closure so the recursion allocates nothing. ments holds the
// matched entry of every body atom bound so far; the fired event's atom has
// none.
//
//exspan:hotpath
func (n *Node) execPlan(rule *CompiledRule, pl *plan, step int, sign int8, env []types.Value, ments []*entry) {
	if n.Err != nil {
		return
	}
	if step == len(pl.steps) {
		if rule.agg != nil {
			// An aggregate body is one stored atom: its entry feeds the group.
			n.aggInput(rule, env, ments[0], sign)
		} else {
			n.emitDerivation(rule, env, ments, sign)
		}
		return
	}
	st := &pl.steps[step]
	switch st.kind {
	case stepAssign:
		v, err := st.expr(env)
		if err != nil {
			//exspanlint:alloc-ok error path: evaluation aborts on the first failure
			n.fail(fmt.Errorf("rule %s: %w", rule.Label, err))
			return
		}
		env[st.assignSlot] = v
		n.execPlan(rule, pl, step+1, sign, env, ments)
	case stepCond:
		v, err := st.expr(env)
		if err != nil {
			//exspanlint:alloc-ok error path: evaluation aborts on the first failure
			n.fail(fmt.Errorf("rule %s: %w", rule.Label, err))
			return
		}
		if v.Truthy() {
			n.execPlan(rule, pl, step+1, sign, env, ments)
		}
	case stepJoin:
		// Probe the index the step declared at Compile, its key built in a
		// reusable buffer; an event atom (never materialized) has none.
		if st.index < 0 {
			return
		}
		n.pool.key = st.appendLookupKey(n.pool.key[:0], env)
		cands := n.pool.lookup(hashKey(st.index, n.pool.key))
		if n.joinStats != nil {
			js := &n.joinStats[st.joinID]
			js.probes++
			js.hits += int64(len(cands))
		}
		// The index still holds entries hidden this round (unindexing
		// waits for endRound), and a candidate is admitted against NEW or
		// OLD visibility depending on the probed atom's position relative
		// to the firing delta (see the file comment).
		firePos := n.sc.fireAtomPos
		admitNew := st.atom < firePos || ments[firePos] == nil
		curRound := n.curRound
		for _, cand := range cands {
			// A hash neighbour from another relation may bind: skip it.
			if int(cand.table) != st.table {
				continue
			}
			vis := cand.visible
			if !admitNew && cand.touchRound == curRound {
				vis = cand.startVis
			}
			if !vis {
				continue
			}
			if !bindTuple(st.binds, cand.Tuple, env) {
				continue
			}
			ments[st.atom] = cand
			n.execPlan(rule, pl, step+1, sign, env, ments)
		}
	}
}

// emitDerivation computes the head tuple for one complete join result and
// emits it through emitFrom.
//
//exspan:hotpath
func (n *Node) emitDerivation(rule *CompiledRule, env []types.Value, ments []*entry, sign int8) {
	n.rulesFired++
	args := n.argArena.Make(len(rule.headCode))
	for i, code := range rule.headCode {
		v, err := code(env)
		if err != nil {
			//exspanlint:alloc-ok error path: evaluation aborts on the first failure
			n.fail(fmt.Errorf("rule %s head: %w", rule.Label, err))
			return
		}
		args[i] = v
	}
	dst := args[rule.HeadLocPos].AsNode()
	if dst < 0 {
		//exspanlint:alloc-ok error path: evaluation aborts on the first failure
		n.fail(fmt.Errorf("rule %s: head location is not a node", rule.Label))
		return
	}
	n.emitFrom(rule, types.Tuple{Pred: rule.HeadPred, Args: args}, dst, ments, sign)
}

// emitFrom emits head, derived by rule from the matched entries ments, to
// dst, maintaining provenance per the configured mode: plain and MIN/MAX
// derivations alike. Input VIDs and payloads come from the matched entries;
// only the fired event (a nil entry), never stored on this node, is hashed
// here.
//
//exspan:hotpath
func (n *Node) emitFrom(rule *CompiledRule, head types.Tuple, dst types.NodeID, ments []*entry, sign int8) {
	sc := n.sc
	inputVIDs, inputs := sc.vidBuf[:len(ments)], sc.vertBuf[:len(ments)]
	for i, e := range ments {
		if e != nil {
			inputVIDs[i], n.pool.key = e.VIDBuf(n.pool.key)
			inputs[i] = &e.Vertex
		} else {
			// Event input: transient, no entry to cache on. A reference-mode
			// row names the vertex the store holds for it.
			inputVIDs[i], n.pool.key = sc.fireTuple.VIDBuf(n.pool.key)
			if n.Mode == ProvReference && sign == Insert {
				inputs[i] = n.Store.Vertex(inputVIDs[i], sc.fireTuple)
			}
		}
	}
	var payload algebra.Payload
	if n.Mode == ProvValue {
		payload = n.Ring.One()
		for _, e := range ments {
			p := sc.firePayload
			if e != nil {
				p = e.payload
			}
			payload = n.Ring.Mul(payload, p)
		}
	}
	n.emit(rule, head, dst, inputVIDs, inputs, sign, payload)
}

// emit records one derivation of head — rule over the inputs, whose VIDs are
// inputVIDs — and routes it to dst: the one derivation record of plain and
// aggregate rules. The RID names the derivation in every mode. A change of
// payload alone (Update) writes no row; otherwise reference mode writes the
// ruleExec row here, and centralized mode relays it and the head's prov row
// to the server, since the deriving node knows the whole derivation.
// Reverse (parent) edges are installed by the query processor when it
// caches a traversal (§6.1), so no per-input edge is maintained on this path.
//
//exspan:hotpath
func (n *Node) emit(rule *CompiledRule, head types.Tuple, dst types.NodeID, inputVIDs []types.ID, inputs []*provenance.Vertex, sign int8, payload algebra.Payload) {
	var rid types.ID
	rid, n.pool.key = types.RuleExecIDBuf(rule.Label, n.ID, inputVIDs, n.pool.key)
	if sign != Update {
		switch n.Mode {
		case ProvReference:
			n.ruleExecRow(rid, rule, inputs, sign)
		case ProvCentralized:
			var headVID types.ID
			headVID, n.pool.key = head.VIDBuf(n.pool.key)
			n.sendRuleExecRow(rid, rule.Label, inputVIDs, sign)
			n.sendProvRow(dst, headVID, rid, n.ID, sign)
		}
	}
	n.route(head, dst, sign, rid, payload)
}

// ruleExecRow writes one ruleExec-row change into the node's store.
//
//exspan:hotpath
func (n *Node) ruleExecRow(rid types.ID, rule *CompiledRule, inputs []*provenance.Vertex, sign int8) {
	if sign == Insert {
		n.Store.AddRuleExec(rid, rule.idx, inputs)
	} else {
		n.Store.DelRuleExec(rid)
	}
}

// route delivers a derived delta to its destination node: enqueued locally
// when the head lives here (behind whatever the ring holds — the next round
// picks it up), shipped through the transport otherwise.
//
//exspan:hotpath
func (n *Node) route(head types.Tuple, dst types.NodeID, sign int8, rid types.ID, payload algebra.Payload) {
	if dst == n.ID {
		n.enqueue(localDelta{tuple: head, sign: sign, rid: rid, rloc: n.ID, payload: payload})
		return
	}
	m := n.Msgs.Get()
	m.Tuple, m.Delta = head, sign
	switch n.Mode {
	case ProvReference:
		m.HasRef, m.RID, m.RLoc = true, rid, n.ID
	case ProvValue:
		// The derivation key still travels so the receiver can maintain
		// its per-derivation payloads; the dominant cost is the payload.
		m.HasRef, m.RID, m.RLoc = true, rid, n.ID
		m.Payload = n.Ring.Encode(payload)
	}
	n.Transport.Send(n.ID, dst, m)
}
