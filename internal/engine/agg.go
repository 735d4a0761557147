package engine

import (
	"fmt"
	"slices"

	"repro/internal/bdd"
	"repro/internal/types"
)

// fireAgg routes a delta of an aggregate rule's body predicate through the
// rule's group state. Body and group evaluation is the same under both
// executors; only the last step differs. The drain applies the update inline
// (applyAgg). Batched rounds queue it on aggIn for the next apply step, since
// group rows are frozen while a fire phase runs; the carried values are
// copied out of scratch into the value arena. The group itself is found (or
// created, empty) here under both executors: groups are never removed, so
// the queued pointer stays valid.
//
//exspan:hotpath
func (n *Node) fireAgg(rule *CompiledRule, t types.Tuple, sign int8, payload bdd.Ref) {
	env, ok := n.evalAggBody(rule, t)
	if !ok {
		return
	}
	spec := rule.agg
	groupVals := n.groupBuf[:len(spec.groupCode)]
	for i, code := range spec.groupCode {
		v, err := code(env)
		if err != nil {
			//exspanlint:alloc-ok error path: evaluation aborts on the first failure
			n.fail(fmt.Errorf("rule %s group: %w", rule.Label, err))
			return
		}
		groupVals[i] = v
	}
	g := n.aggGroupFor(rule, groupVals)

	if sign == Update {
		// Value-mode payload update (value mode always drains): if the
		// updated input is the current winner, the head's payload follows it.
		if n.Mode == ProvValue && g.hasOut && g.curWin.Equal(t) {
			out := g.curOut
			out.Pred = rule.HeadPred
			n.vidBuf[0], n.hashBuf = t.VIDBuf(n.hashBuf)
			var rid types.ID
			rid, n.ridBuf = types.RuleExecIDBuf(rule.Label, n.ID, n.vidBuf[:1], n.ridBuf)
			n.route(out, n.ID, Update, rid, payload)
		}
		return
	}

	sortVal, carried := n.evalAggVals(rule, env)
	if n.batched {
		n.aggIn = append(n.aggIn, aggItem{
			rule: rule, g: g, sortVal: sortVal,
			carried: n.argArena.Copy(carried), input: t, sign: sign,
		})
		return
	}
	n.applyAgg(rule, g, sortVal, carried, t, sign)
}

// applyAgg applies one input delta to its aggregate group and emits any net
// output change as local head deltas. carried may be scratch (update copies
// what it retains).
//
//exspan:hotpath
func (n *Node) applyAgg(rule *CompiledRule, g *aggGroup, sortVal types.Value,
	carried []types.Value, input types.Tuple, sign int8) {

	for _, em := range g.update(n, rule, sortVal, carried, input, sign) {
		n.emitAggChange(rule, em)
	}
}

// aggGroupFor returns the rule's group of the given group-by values,
// creating it on first sight.
func (n *Node) aggGroupFor(rule *CompiledRule, groupVals []types.Value) *aggGroup {
	n.keyBuf = appendValuesKey(n.keyBuf[:0], groupVals)
	return n.aggGroupAt(rule, hashIndexKey(n.keyBuf), groupVals)
}

// aggGroupAt is aggGroupFor under the FNV-1a hash h of the group-by values'
// handle keys — the way relations key their entries. A group keeps its
// values (copied into the arena once, at creation), and a lookup verifies
// them; groups whose values collide in 64 bits share a map slot as a chain.
// Groups are never removed, so a *aggGroup stays valid for the node's
// lifetime.
func (n *Node) aggGroupAt(rule *CompiledRule, h uint64, groupVals []types.Value) *aggGroup {
	groups := n.aggByRule[rule.idx]
	head := groups[h]
	for g := head; g != nil; g = g.next {
		if argsEqual(g.groupVals, groupVals) {
			return g
		}
	}
	g := n.aggGroupArena.New()
	g.groupVals, g.next = n.argArena.Copy(groupVals), head
	if groups == nil {
		groups = map[uint64]*aggGroup{}
		n.aggByRule[rule.idx] = groups
	}
	groups[h] = g
	return g
}

// evalAggBody binds the body tuple into the rule environment and runs the
// plan's assignments and conditions; ok is false when binding or a condition
// fails (or an expression errored).
func (n *Node) evalAggBody(rule *CompiledRule, t types.Tuple) ([]types.Value, bool) {
	pl := rule.plans[0]
	env := n.envBuf[:rule.numVars]
	if !bindTuple(pl.deltaBinds, t, env) {
		return nil, false
	}
	// Aggregate bodies may carry assignments/conditions.
	for i := range pl.steps {
		st := &pl.steps[i]
		switch st.kind {
		case stepAssign:
			v, err := st.expr(env)
			if err != nil {
				n.fail(fmt.Errorf("rule %s: %w", rule.Label, err))
				return nil, false
			}
			env[st.assignSlot] = v
		case stepCond:
			v, err := st.expr(env)
			if err != nil {
				n.fail(fmt.Errorf("rule %s: %w", rule.Label, err))
				return nil, false
			}
			if !v.Truthy() {
				return nil, false
			}
		}
	}
	return env, true
}

// evalAggVals extracts the aggregate's sort value and carried values from
// the bound environment into scratch (carryBuf). Callers must copy the
// carried slice if they retain it.
func (n *Node) evalAggVals(rule *CompiledRule, env []types.Value) (types.Value, []types.Value) {
	spec := rule.agg
	var sortVal types.Value
	vals := n.carryBuf[:0]
	switch spec.Fn {
	case "MIN", "MAX":
		sortVal = env[spec.sortSlot]
		for _, s := range spec.carried {
			vals = append(vals, env[s])
		}
	case "COUNT":
		sortVal = types.Int(0)
	case "AGGLIST":
		for _, s := range spec.listSlots {
			vals = append(vals, env[s])
		}
	}
	n.carryBuf = vals[:0]
	carried := vals
	if spec.Fn == "AGGLIST" {
		if len(vals) > 0 {
			sortVal = vals[0]
			carried = vals[1:]
		} else {
			sortVal = types.Int(0)
			carried = nil
		}
	}
	return sortVal, carried
}

// emitAggChange applies provenance bookkeeping for an aggregate output
// change and routes it. Aggregate heads are local by validation.
func (n *Node) emitAggChange(rule *CompiledRule, em aggEmit) {
	n.rulesFired++
	out := em.tuple
	out.Pred = rule.HeadPred
	var rid types.ID
	var payload bdd.Ref
	if rule.agg.ordered() {
		// The winning input is stored in the body relation; reuse its
		// cached VID instead of re-hashing the tuple.
		var winEnt *entry
		if rel := n.aggBodyRel[rule.idx]; rel != nil {
			winEnt = rel.get(em.winner)
		}
		if winEnt != nil {
			n.vidBuf[0], n.hashBuf = winEnt.VIDBuf(n.hashBuf)
		} else {
			n.vidBuf[0], n.hashBuf = em.winner.VIDBuf(n.hashBuf)
		}
		rid, n.ridBuf = types.RuleExecIDBuf(rule.Label, n.ID, n.vidBuf[:1], n.ridBuf)
		switch n.Mode {
		case ProvReference:
			n.ruleExecRow(rid, rule.Label, n.vidBuf[:1], em.sign)
		case ProvCentralized:
			var headVID types.ID
			headVID, n.hashBuf = out.VIDBuf(n.hashBuf)
			n.sendRuleExecRow(rid, rule.Label, n.vidBuf[:1], em.sign)
			n.sendProvRow(n.ID, headVID, rid, n.ID, em.sign)
		case ProvValue:
			payload = bdd.True
			if winEnt != nil {
				payload = winEnt.payload
			}
		}
	}
	// COUNT/AGGLIST outputs carry no MIN/MAX-style provenance child (the
	// paper restricts aggregate provenance to MIN and MAX); they enter the
	// graph as base-like vertices via the null RID.
	n.route(out, n.ID, em.sign, rid, payload)
}

// aggEntry is one row of an aggregate group's input multiset: one distinct
// (sortVal, carried) pair, the body tuple that first brought it, and its
// multiplicity.
type aggEntry struct {
	input   types.Tuple // the body tuple (provenance child, payload source)
	sortVal types.Value
	carried []types.Value
	count   int
}

// aggGroup maintains one group of an aggregate rule: its group-by values,
// the multiset of input rows, and the currently emitted output.
//
// rows is held by value in aggregate order (rowCmp), so a MIN/MAX winner is
// rows[0] and AGGLIST reads its list off in order. The group struct, the
// first row's capacity, the group-by values and each row's carried values
// are carved from the node's arenas (value slices are pointer-free under the
// compact Value representation, so the arenas cost the garbage collector
// nothing to scan); the group borrows the node's scratch to refresh.
type aggGroup struct {
	groupVals []types.Value
	rows      []aggEntry
	// curOut is the currently emitted head tuple (hasOut reports whether
	// one exists), and curWin the input tuple it was traced to (MIN/MAX
	// provenance; zero otherwise).
	curOut types.Tuple
	curWin types.Tuple
	next   *aggGroup // next group on the same hash slot (aggGroupAt)
	hasOut bool
	// staged defers output re-emission to the retraction protocol's
	// release phase: after a delete evicts a recursive rule's winner, the
	// group emits nothing (hasOut stays false) until releaseStaged
	// re-refreshes it against post-deletion-wave state. Promoting the
	// next-best row eagerly is the count-to-infinity engine — the next-best
	// may be phantom support the deletion wave has not yet consumed.
	staged bool
}

// stagedGroup records one group awaiting its deferred re-refresh.
type stagedGroup struct {
	rule *CompiledRule
	g    *aggGroup
}

// stage registers the group with the node's release list.
func (g *aggGroup) stage(n *Node, rule *CompiledRule) {
	if g.staged {
		return
	}
	g.staged = true
	n.stagedGroups = append(n.stagedGroups, stagedGroup{rule: rule, g: g})
}

// appendValuesKey appends the fixed-width handle keys of vals to b (see
// types.Value.AppendKey): the bytes a group's hash is taken over, built in
// a reusable buffer and copying no payload bytes.
func appendValuesKey(b []byte, vals []types.Value) []byte {
	for _, v := range vals {
		b = v.AppendKey(b)
	}
	return b
}

// aggEmit is one visible change of the aggregate output.
type aggEmit struct {
	tuple  types.Tuple
	winner types.Tuple // MIN/MAX: the input tuple the output derives from
	sign   int8
}

// update applies one input delta and returns the emitted output changes.
// rule.agg drives the aggregate function; n supplies the arenas retained
// data is carved from. carried may be caller scratch: it is copied if a new
// row must retain it.
func (g *aggGroup) update(n *Node, rule *CompiledRule,
	sortVal types.Value, carried []types.Value, input types.Tuple, sign int8) []aggEmit {

	spec := rule.agg
	i, found := g.search(spec, sortVal, carried)
	switch sign {
	case Insert:
		if found {
			g.rows[i].count++
		} else {
			if g.rows == nil {
				g.rows = n.aggEntryArena.Cap1()
			}
			g.rows = slices.Insert(g.rows, i, aggEntry{
				input: input, sortVal: sortVal, carried: n.argArena.Copy(carried), count: 1,
			})
		}
		// MIN/MAX fast path: the output only moves when the group had no
		// output yet or rows[0] changed. Everything else — copies of the
		// winner, rows worse than the winner — is the common case in route
		// computation and skips refresh.
		if spec.ordered() && g.hasOut && (found || i > 0) {
			return nil
		}
	case Delete:
		if !found {
			return nil // deletion of an unseen row: ignore defensively
		}
		g.rows[i].count--
		gone := g.rows[i].count <= 0
		if gone {
			g.rows = slices.Delete(g.rows, i, i+1)
		}
		// MIN/MAX fast path: removing a non-winning row, or one copy of a
		// winner that remains in the multiset, leaves the output untouched.
		if spec.ordered() && g.hasOut && (i > 0 || !gone) {
			return nil
		}
	default:
		return nil
	}
	return g.refresh(n, rule, sign == Delete)
}

// search binary-searches the rows for (sortVal, carried): the row's index
// and true if present, else its insertion index and false.
func (g *aggGroup) search(spec *AggSpec, sortVal types.Value, carried []types.Value) (int, bool) {
	lo, hi := 0, len(g.rows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rowCmp(spec, &g.rows[m], sortVal, carried) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(g.rows) && rowCmp(spec, &g.rows[lo], sortVal, carried) == 0
}

// rowCmp orders a row against (sortVal, carried) in aggregate order: by sort
// value, ascending (descending for MAX), then by the carried values,
// ascending. It is zero exactly for equal pairs, so the order is strict and
// the winner deterministic.
func rowCmp(spec *AggSpec, e *aggEntry, sortVal types.Value, carried []types.Value) int {
	c := e.sortVal.Compare(sortVal)
	if spec.Fn == "MAX" {
		c = -c
	}
	if c != 0 {
		return c
	}
	for i := 0; i < len(e.carried) && i < len(carried); i++ {
		if c := e.carried[i].Compare(carried[i]); c != 0 {
			return c
		}
	}
	return len(e.carried) - len(carried)
}

// refresh recomputes the output tuple and diffs it against the currently
// emitted one. The returned slice aliases the node's emit buffer and is
// valid until the next refresh of any group on the node. The steady-state
// path — an input delta that does not change the output — allocates
// nothing, and a changed output carves its retained argument slice from the
// node's arena.
//
// deleting reports that the triggering input delta was a Delete. For rules
// whose head predicate is recursive, a delete-driven output re-emission is
// a winner promotion the retraction protocol must defer: the Delete of the
// old output still cascades, but the Insert of the replacement is withheld
// and the group staged until the deletion wave quiesces. Once staged, the
// group stays output-silent through further refreshes (insert-driven ones
// included — an arriving insert would otherwise promote a phantom row)
// until releaseStaged re-refreshes it.
func (g *aggGroup) refresh(n *Node, rule *CompiledRule, deleting bool) []aggEmit {
	spec := rule.agg
	newArgs, ok := g.compute(n, spec)
	emits := n.aggEmitBuf[:0]
	if g.hasOut && !(ok && argsEqual(g.curOut.Args, newArgs)) {
		emits = append(emits, aggEmit{tuple: g.curOut, sign: Delete, winner: g.curWin})
		g.curOut, g.hasOut, g.curWin = types.Tuple{}, false, types.Tuple{}
	}
	if !ok && deleting && rule.headRecursive {
		// The delete emptied the group. Stage it anyway: an insert arriving
		// before the deletion wave quiesces (a stale re-advertisement
		// around a cycle) must not refill and promote immediately — that
		// reopens the count-to-infinity lap through an empty group.
		g.stage(n, rule)
	}
	if ok && !g.hasOut {
		if g.staged || (deleting && rule.headRecursive) {
			g.stage(n, rule)
		} else {
			// Materialize the candidate output: it escapes into the group
			// state and the emitted delta, so its args leave the scratch
			// buffer for the arena.
			g.curOut, g.hasOut = types.Tuple{Args: n.argArena.Copy(newArgs)}, true
			if spec.ordered() {
				g.curWin = g.rows[0].input
			}
			emits = append(emits, aggEmit{tuple: g.curOut, sign: Insert, winner: g.curWin})
		}
	}
	n.aggEmitBuf = emits
	return emits
}

// argsEqual reports whether two value lists are equal: interned handles are
// canonical, so == per value is content equality. It is the check behind
// every hash-keyed lookup of relation entries and aggregate groups.
func argsEqual(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compute evaluates the aggregate over the current rows into the node's
// reusable args buffer. It reports ok=false when the group emits nothing.
func (g *aggGroup) compute(n *Node, spec *AggSpec) ([]types.Value, bool) {
	if len(g.rows) == 0 {
		return nil, false
	}
	var aggList types.Value
	if spec.Fn == "AGGLIST" {
		list := make([]types.Value, len(g.rows))
		for i := range g.rows {
			e := &g.rows[i]
			list[i] = types.List(append([]types.Value{e.sortVal}, e.carried...)...)
		}
		aggList = types.List(list...)
	}

	// Assemble the head: group values in order, aggregate values spliced
	// in at the aggregate position.
	args := n.aggArgsBuf[:0]
	gi := 0
	for pos := 0; pos <= len(g.groupVals); pos++ {
		if pos == spec.AggPos {
			switch spec.Fn {
			case "MIN", "MAX":
				args = append(args, g.rows[0].sortVal)
				args = append(args, g.rows[0].carried...)
			case "COUNT":
				total := 0
				for i := range g.rows {
					total += g.rows[i].count
				}
				args = append(args, types.Int(int64(total)))
			case "AGGLIST":
				args = append(args, aggList)
			}
			continue
		}
		args = append(args, g.groupVals[gi])
		gi++
	}
	n.aggArgsBuf = args
	return args, true
}
