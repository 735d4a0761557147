package engine

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/types"
)

// This file is the EXECUTION half of the evaluation-state layer: evaluating a
// rule's delta plan for one triggering tuple and emitting head derivations.
// All intermediate state (environment, matched tuples, payloads, lookup keys)
// lives in the node's scratch arenas — one rule firing performs no slice
// allocation of its own, which the hotpath_test.go fences pin.
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

// firePlan evaluates the delta plan of (rule, pos) for tuple t and emits
// head derivations.
//
//exspan:hotpath
func (n *Node) firePlan(rule *CompiledRule, pos int, t types.Tuple, sign int8,
	deltaEntry *entry, deltaPayload algebra.Payload) {

	pl := rule.plans[pos]
	env := n.envBuf[:rule.numVars]
	if !bindTuple(pl.deltaBinds, t, env) {
		return
	}
	matched := n.matchedBuf[:len(rule.atoms)]
	ments := n.entBuf[:len(rule.atoms)]
	payloads := n.payloadBuf[:len(rule.atoms)]
	for i := range ments {
		ments[i] = nil
	}
	matched[pos] = t
	ments[pos] = deltaEntry
	payloads[pos] = deltaPayload
	n.fireAtomPos = pos
	n.fireIsEvent = deltaEntry == nil
	n.execPlan(rule, pl, 0, sign, env, matched, ments, payloads)
}

// execPlan runs plan steps from step onward. It is a plain recursive method
// rather than a closure so the recursion allocates nothing.
//
//exspan:hotpath
func (n *Node) execPlan(rule *CompiledRule, pl *plan, step int, sign int8,
	env []types.Value, matched []types.Tuple, ments []*entry, payloads []algebra.Payload) {

	if n.Err != nil {
		return
	}
	if step == len(pl.steps) {
		n.emitDerivation(rule, env, matched, ments, payloads, sign)
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
		n.execPlan(rule, pl, step+1, sign, env, matched, ments, payloads)
	case stepCond:
		v, err := st.expr(env)
		if err != nil {
			//exspanlint:alloc-ok error path: evaluation aborts on the first failure
			n.fail(fmt.Errorf("rule %s: %w", rule.Label, err))
			return
		}
		if v.Truthy() {
			n.execPlan(rule, pl, step+1, sign, env, matched, ments, payloads)
		}
	case stepJoin:
		// Probe the index the step declared at Compile: the key is built
		// in a reusable buffer, a one-entry bucket comes back in an array
		// on this frame, and an event atom (never materialized) has none.
		if st.index < 0 {
			return
		}
		n.pool.key = st.appendLookupKey(n.pool.key[:0], env)
		var one [1]*entry
		cands := n.pool.lookup(hashKey(st.index, n.pool.key), one[:0])
		js := &n.joinStats[st.joinID]
		js.probes++
		js.hits += int64(len(cands))
		// The index still holds entries hidden this round (unindexing
		// waits for endRound), and a candidate is admitted against NEW or
		// OLD visibility depending on the probed atom's position relative
		// to the firing delta (see the file comment).
		admitNew := st.atom < n.fireAtomPos || n.fireIsEvent
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
			matched[st.atom] = cand.Tuple
			ments[st.atom] = cand
			payloads[st.atom] = cand.payload
			n.execPlan(rule, pl, step+1, sign, env, matched, ments, payloads)
		}
	}
}

// emitDerivation computes the head tuple for one complete join result and
// routes the delta (locally or over the transport), maintaining provenance
// per the configured mode. Input VIDs come from the matched entries' caches;
// only tuples never stored on this node (event inputs) are hashed here.
//
//exspan:hotpath
func (n *Node) emitDerivation(rule *CompiledRule, env []types.Value,
	matched []types.Tuple, ments []*entry, payloads []algebra.Payload, sign int8) {

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
	head := types.Tuple{Pred: rule.HeadPred, Args: args}
	dst := args[rule.HeadLocPos].AsNode()
	if dst < 0 {
		//exspanlint:alloc-ok error path: evaluation aborts on the first failure
		n.fail(fmt.Errorf("rule %s: head location is not a node", rule.Label))
		return
	}

	inputVIDs := n.vidBuf[:len(matched)]
	for i := range matched {
		if ments[i] != nil {
			inputVIDs[i], n.hashBuf = ments[i].VIDBuf(n.hashBuf)
		} else {
			// Event input: transient, no entry to cache on.
			inputVIDs[i], n.hashBuf = matched[i].VIDBuf(n.hashBuf)
		}
	}
	var payload algebra.Payload
	if n.Mode == ProvValue {
		payload = n.Ring.One()
		for _, p := range payloads {
			payload = n.Ring.Mul(payload, p)
		}
	}
	n.emit(rule.Label, head, dst, inputVIDs, sign, payload)
}

// emit records one derivation of head — rule label over the input VIDs —
// and routes it to dst: the one derivation record of plain and aggregate
// rules. The RID names the derivation in every mode. A change of payload
// alone (Update) writes no row; otherwise reference mode writes the ruleExec
// row here, and centralized mode relays it and the head's prov row to the
// server, since the deriving node knows the whole derivation. Reverse
// (parent) edges are installed by the query processor when it caches a
// traversal (§6.1), so no per-input edge is maintained on this path.
//
//exspan:hotpath
func (n *Node) emit(label string, head types.Tuple, dst types.NodeID, inputVIDs []types.ID, sign int8, payload algebra.Payload) {
	var rid types.ID
	rid, n.ridBuf = types.RuleExecIDBuf(label, n.ID, inputVIDs, n.ridBuf)
	if sign != Update {
		switch n.Mode {
		case ProvReference:
			n.ruleExecRow(rid, label, inputVIDs, sign)
		case ProvCentralized:
			var headVID types.ID
			headVID, n.hashBuf = head.VIDBuf(n.hashBuf)
			n.sendRuleExecRow(rid, label, inputVIDs, sign)
			n.sendProvRow(dst, headVID, rid, n.ID, sign)
		}
	}
	n.route(head, dst, sign, rid, payload)
}

// ruleExecRow writes one ruleExec-row change into the node's store.
//
//exspan:hotpath
func (n *Node) ruleExecRow(rid types.ID, label string, inputVIDs []types.ID, sign int8) {
	if sign == Insert {
		n.Store.AddRuleExec(rid, label, inputVIDs)
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
