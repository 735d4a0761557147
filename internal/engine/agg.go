package engine

import (
	"fmt"
	"sort"

	"repro/internal/bdd"
	"repro/internal/types"
)

// fireAgg routes a delta of an aggregate rule's body predicate through the
// rule's group state. Body and group evaluation is the same under both
// executors; only the last step differs. The drain applies the update inline
// (applyAgg). Batched rounds queue it on aggIn for the next apply step, since
// group state is frozen while a fire phase runs; the group and carried values
// are copied out of scratch into the value arena.
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

	if sign == Update {
		// Value-mode payload update (value mode always drains): if the
		// updated input is the current winner, the head's payload follows it.
		g := n.aggGroupFor(rule, groupVals)
		if n.Mode == ProvValue && g.curWinner != nil && g.curWinner.input.Equal(t) && g.hasOut {
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
			rule: rule, groupVals: n.argArena.Copy(groupVals), sortVal: sortVal,
			carried: n.argArena.Copy(carried), input: t, sign: sign,
		})
		return
	}
	n.applyAgg(rule, groupVals, sortVal, carried, t, sign)
}

// applyAgg applies one input delta to its aggregate group and emits any net
// output change as local head deltas. carried may be scratch (update copies
// what it retains).
//
//exspan:hotpath
func (n *Node) applyAgg(rule *CompiledRule, groupVals []types.Value, sortVal types.Value,
	carried []types.Value, input types.Tuple, sign int8) {

	g := n.aggGroupFor(rule, groupVals)
	for _, em := range g.update(n, rule, groupVals, sortVal, carried, input, sign) {
		n.emitAggChange(rule, em)
	}
}

// aggGroupFor returns the rule's group of the given group-by values, carving
// a fresh one (with its entry map ready) on first sight.
func (n *Node) aggGroupFor(rule *CompiledRule, groupVals []types.Value) *aggGroup {
	groups := n.aggByRule[rule.idx]
	if groups == nil {
		groups = map[string]*aggGroup{}
		n.aggByRule[rule.idx] = groups
	}
	n.keyBuf = appendValuesKey(n.keyBuf[:0], groupVals)
	g := groups[string(n.keyBuf)]
	if g == nil {
		g = n.aggGroupArena.New()
		g.entries = make(map[string]*aggEntry)
		groups[string(n.keyBuf)] = g
	}
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
	if em.hasWin {
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

// aggEntry is one element of an aggregate group's input multiset.
type aggEntry struct {
	input   types.Tuple // the body tuple (provenance child, payload source)
	sortVal types.Value
	carried []types.Value
	count   int
}

// aggGroup maintains one group of an aggregate rule: the multiset of input
// rows and the currently emitted output.
//
// Group structs, entry structs, carried-value copies and output argument
// slices are all carved from the node's arenas (value slices
// are pointer-free under the compact Value representation, so the arenas
// cost the garbage collector nothing to scan); the group itself holds only
// its entry map and free list, and borrows the node's scratch to refresh.
type aggGroup struct {
	entries map[string]*aggEntry
	free    []*aggEntry // retired entries recycled by later inserts
	// curOut is the currently emitted head tuple (hasOut reports whether
	// one exists), and curWinner the input entry it was traced to (MIN/MAX
	// provenance).
	curOut    types.Tuple
	hasOut    bool
	curWinner *aggEntry
	total     int // COUNT<*>
	// staged defers output re-emission to the retraction protocol's
	// release phase: after a delete evicts a recursive rule's winner, the
	// group emits nothing (hasOut stays false) until releaseStaged
	// re-refreshes it against post-deletion-wave state. Promoting the
	// next-best row eagerly is the count-to-infinity engine — the next-best
	// may be phantom support the deletion wave has not yet consumed.
	staged bool
}

// stagedGroup records one group awaiting its deferred re-refresh, with the
// retained group-by values refresh needs to rebuild the head.
type stagedGroup struct {
	rule      *CompiledRule
	g         *aggGroup
	groupVals []types.Value
}

// stage registers the group with the node's release list.
func (g *aggGroup) stage(n *Node, rule *CompiledRule, groupVals []types.Value) {
	if g.staged {
		return
	}
	g.staged = true
	n.stagedGroups = append(n.stagedGroups, stagedGroup{rule: rule, g: g, groupVals: n.argArena.Copy(groupVals)})
}

// appendValuesKey appends the fixed-width handle keys of vals to b (see
// types.Value.AppendKey). Group and entry keys are built in reusable buffers
// so the aggregate delta path does not allocate per input row, and the
// handle form copies no payload bytes.
func appendValuesKey(b []byte, vals []types.Value) []byte {
	for _, v := range vals {
		b = v.AppendKey(b)
	}
	return b
}

func appendAggEntryKey(b []byte, sortVal types.Value, carried []types.Value) []byte {
	b = sortVal.AppendKey(b)
	return appendValuesKey(b, carried)
}

// aggEmit is one visible change of the aggregate output.
type aggEmit struct {
	tuple  types.Tuple
	sign   int8
	winner types.Tuple // MIN/MAX: the input tuple the output derives from
	hasWin bool
}

// update applies one input delta and returns the emitted output changes.
// groupVals are the evaluated group-by head arguments; rule.agg drives the
// aggregate function; n supplies the arenas retained data is carved from.
// carried may be caller scratch: it is copied if the entry must retain it.
func (g *aggGroup) update(n *Node, rule *CompiledRule, groupVals []types.Value,
	sortVal types.Value, carried []types.Value, input types.Tuple, sign int8) []aggEmit {

	spec := rule.agg
	n.aggKeyBuf = appendAggEntryKey(n.aggKeyBuf[:0], sortVal, carried)
	key := n.aggKeyBuf
	ordered := spec.Fn == "MIN" || spec.Fn == "MAX"
	switch sign {
	case Insert:
		e := g.entries[string(key)]
		if e == nil {
			if fn := len(g.free); fn > 0 {
				e = g.free[fn-1]
				g.free[fn-1] = nil
				g.free = g.free[:fn-1]
				e.input, e.sortVal, e.count = input, sortVal, 0
				e.carried = append(e.carried[:0], carried...)
			} else {
				e = n.aggEntryArena.New()
				e.input, e.sortVal = input, sortVal
				e.carried = n.argArena.Copy(carried)
			}
			g.entries[string(key)] = e
		}
		e.count++
		g.total++
		// MIN/MAX fast path: the output only moves when the group had no
		// output yet or the inserted row dethrones the current winner.
		// Everything else — copies of the winner, rows worse than the
		// winner — is the common case in route computation and skips the
		// full rescan refresh would do.
		if ordered && g.hasOut && (e == g.curWinner || !beats(spec, e, g.curWinner)) {
			return nil
		}
	case Delete:
		e := g.entries[string(key)]
		if e == nil {
			return nil // deletion of an unseen row: ignore defensively
		}
		e.count--
		g.total--
		if e.count <= 0 {
			delete(g.entries, string(key))
			// Recycle the entry. Safe: refresh re-resolves curWinner before
			// this update returns, so no live reference survives (see the
			// fast path below — a deleted winner always reaches refresh).
			g.free = append(g.free, e)
		}
		// MIN/MAX fast path: removing a non-winning row, or one copy of a
		// winner that remains in the multiset, leaves the output untouched.
		if ordered && g.hasOut && (e != g.curWinner || e.count > 0) {
			return nil
		}
	default:
		return nil
	}
	return g.refresh(n, rule, groupVals, sign == Delete)
}

// beats reports whether a wins over b under spec's ordering (including the
// deterministic carried-value tie-break, which is strict because entries
// are keyed by their full (sortVal, carried) encoding).
func beats(spec *AggSpec, a, b *aggEntry) bool {
	c := a.sortVal.Compare(b.sortVal)
	if spec.Fn == "MAX" {
		c = -c
	}
	return c < 0 || (c == 0 && compareCarried(a, b) < 0)
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
func (g *aggGroup) refresh(n *Node, rule *CompiledRule, groupVals []types.Value, deleting bool) []aggEmit {
	newArgs, newWinner, ok := g.compute(n, rule.agg, groupVals)
	emits := n.aggEmitBuf[:0]
	if g.hasOut && !(ok && argsEqual(g.curOut.Args, newArgs)) {
		em := aggEmit{tuple: g.curOut, sign: Delete}
		if g.curWinner != nil {
			em.winner, em.hasWin = g.curWinner.input, true
		}
		emits = append(emits, em)
		g.curOut, g.hasOut, g.curWinner = types.Tuple{}, false, nil
	}
	if !ok && deleting && rule.headRecursive {
		// The delete emptied the group. Stage it anyway: an insert arriving
		// before the deletion wave quiesces (a stale re-advertisement
		// around a cycle) must not refill and promote immediately — that
		// reopens the count-to-infinity lap through an empty group.
		g.stage(n, rule, groupVals)
	}
	if ok && !g.hasOut {
		if g.staged || (deleting && rule.headRecursive) {
			g.stage(n, rule, groupVals)
		} else {
			// Materialize the candidate output: it escapes into the group
			// state and the emitted delta, so its args leave the scratch
			// buffer for the arena.
			out := types.Tuple{Args: n.argArena.Copy(newArgs)}
			em := aggEmit{tuple: out, sign: Insert}
			if newWinner != nil {
				em.winner, em.hasWin = newWinner.input, true
			}
			emits = append(emits, em)
			g.curOut, g.hasOut, g.curWinner = out, true, newWinner
		}
	}
	n.aggEmitBuf = emits
	return emits
}

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

// compute evaluates the aggregate over the current multiset into the
// node's reusable args buffer. It reports ok=false when the group emits
// nothing.
func (g *aggGroup) compute(n *Node, spec *AggSpec, groupVals []types.Value) ([]types.Value, *aggEntry, bool) {
	args := n.aggArgsBuf[:0]
	var winner *aggEntry
	var aggList types.Value
	switch spec.Fn {
	case "MIN", "MAX":
		for _, e := range g.entries {
			if winner == nil {
				winner = e
				continue
			}
			c := e.sortVal.Compare(winner.sortVal)
			if spec.Fn == "MAX" {
				c = -c
			}
			if c < 0 || (c == 0 && compareCarried(e, winner) < 0) {
				winner = e
			}
		}
		if winner == nil {
			return nil, nil, false
		}
	case "COUNT":
		if g.total <= 0 {
			return nil, nil, false
		}
	case "AGGLIST":
		if len(g.entries) == 0 {
			return nil, nil, false
		}
		rows := make([]types.Value, 0, len(g.entries))
		for _, e := range g.entries {
			row := append([]types.Value{e.sortVal}, e.carried...)
			rows = append(rows, types.List(row...))
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].Compare(rows[j]) < 0 })
		aggList = types.List(rows...)
	default:
		return nil, nil, false
	}

	// Assemble the head: group values in order, aggregate values spliced
	// in at the aggregate position.
	gi := 0
	for pos := 0; pos <= len(groupVals); pos++ {
		if pos == spec.AggPos {
			switch spec.Fn {
			case "MIN", "MAX":
				args = append(args, winner.sortVal)
				args = append(args, winner.carried...)
			case "COUNT":
				args = append(args, types.Int(int64(g.total)))
			case "AGGLIST":
				args = append(args, aggList)
			}
			continue
		}
		args = append(args, groupVals[gi])
		gi++
	}
	n.aggArgsBuf = args
	return args, winner, true
}

func compareCarried(a, b *aggEntry) int {
	for i := 0; i < len(a.carried) && i < len(b.carried); i++ {
		if c := a.carried[i].Compare(b.carried[i]); c != 0 {
			return c
		}
	}
	return len(a.carried) - len(b.carried)
}
