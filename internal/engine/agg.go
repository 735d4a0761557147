package engine

import (
	"fmt"
	"slices"

	"repro/internal/openaddr"
	"repro/internal/types"
)

// aggInput routes a delta of an aggregate rule's body entry e, whose body
// the plan executor has bound into env and passed, through the rule's group
// state: the last operator of the rule's one firing path (execPlan). The
// update queues on the scratch's aggIn for the next apply step, since group
// rows are frozen while a fire phase runs, and pins the entry so the round's
// tombstone sweep cannot reclaim it before the update applies.
// The group itself is found (or created, empty) here: groups are never
// removed, so the queued pointer stays valid.
//
//exspan:hotpath
func (n *Node) aggInput(rule *CompiledRule, env []types.Value, e *entry, sign int8) {
	spec := rule.agg
	groupVals := n.sc.groupBuf[:len(spec.groupCode)]
	for i, code := range spec.groupCode {
		v, err := code(env)
		if err != nil {
			//exspanlint:alloc-ok error path: evaluation aborts on the first failure
			n.fail(fmt.Errorf("rule %s group: %w", rule.Label, err))
			return
		}
		groupVals[i] = v
	}
	g := n.aggGroupAt(rule, groupVals)

	if sign == Update {
		// Value-mode payload update: if the updated input is the current
		// winner, the head's payload follows it.
		if n.Mode == ProvValue && g.hasOut && g.curWin == e {
			out := g.curOut
			out.Pred = rule.HeadPred
			n.emitFrom(rule, out, n.ID, append(n.sc.entBuf[:0], e), Update)
		}
		return
	}

	e.aggQueued = true
	n.sc.aggIn = append(n.sc.aggIn, aggItem{g: g, ent: e, sign: sign})
}

// applyAgg applies one input delta to its aggregate group and emits any net
// output change as local head deltas.
//
//exspan:hotpath
func (n *Node) applyAgg(g *aggGroup, e *entry, sign int8) {
	rule := n.Prog.Rules[g.rule]
	for _, em := range g.update(n, rule, e, sign) {
		n.emitAggChange(rule, em)
	}
}

// aggGroupAt returns the rule's group of the given group-by values, creating
// it on first sight. Every rule's groups share the node's group table, found
// by the hash of the rule number and the values (entryPool.hash); a group
// keeps both (its values copied into the arena once, at creation) for a
// lookup to compare. Groups are never removed, so a *aggGroup stays valid
// for the node's lifetime.
func (n *Node) aggGroupAt(rule *CompiledRule, groupVals []types.Value) *aggGroup {
	groups, h := &n.pool.tabs.groups, n.pool.hash(rule.idx, groupVals)
	k := groupKey{&n.pool, groupVals, uint32(rule.idx)}
	slot, g, ok := openaddr.Find(groups, k, h)
	if !ok {
		g = n.aggGroupArena.New()
		g.groupVals, g.rule = n.argArena.Copy(groupVals), k.rule
		openaddr.Insert(groups, k, h, g, slot)
	}
	return g
}

// emitAggChange records and routes an aggregate output change. Aggregate
// heads are local by validation. A MIN/MAX output derives from its winner, a
// stored entry of this node whose cached VID and payload are read off it.
// COUNT/AGGLIST outputs carry no MIN/MAX-style provenance child (the paper
// restricts aggregate provenance to MIN and MAX); they enter the graph as
// base-like vertices via the null RID.
func (n *Node) emitAggChange(rule *CompiledRule, em aggEmit) {
	n.rulesFired++
	out := em.tuple
	out.Pred = rule.HeadPred
	if !rule.agg.ordered() {
		n.route(out, n.ID, em.sign, types.ZeroID, noPayload)
		return
	}
	n.emitFrom(rule, out, n.ID, append(n.sc.entBuf[:0], em.winner), em.sign)
}

// aggGroup maintains one group of an aggregate rule: its group-by values,
// the input rows, and the currently emitted output.
//
// A row is a handle to a visible relation entry of the rule's body predicate
// on this node — one row per entry, never a copy of its tuple. rows is held
// in aggregate order (rowCmp), so a MIN/MAX winner is rows[0], COUNT is
// len(rows) and AGGLIST reads its list off in order. An entry leaves the rows
// when its Delete reaches the group; entry.aggQueued keeps the sweep from
// reclaiming it while that update is queued. The
// group struct, the first row's capacity and the group-by values are carved
// from the node's arenas; the group refreshes in the node's round scratch.
type aggGroup struct {
	groupVals []types.Value
	rows      []*entry
	// curOut is the currently emitted head tuple (hasOut reports whether
	// one exists), and curWin the input entry it was traced to (MIN/MAX
	// provenance; nil otherwise) — a live row attaining the output.
	curOut types.Tuple
	curWin *entry
	hasOut bool
	// staged defers output re-emission to the retraction protocol's
	// release phase: after a delete evicts a recursive rule's winner, the
	// group emits nothing (hasOut stays false) until releaseStaged
	// re-refreshes it against post-deletion-wave state. Promoting the
	// next-best row eagerly is the count-to-infinity engine — the next-best
	// may be phantom support the deletion wave has not yet consumed.
	staged bool
	// rule is the group's CompiledRule.idx, in the struct's trailing
	// padding: the node's one group table holds every rule's groups.
	rule uint32
}

// stage registers the group with the node's release list.
func (g *aggGroup) stage(n *Node) {
	if g.staged {
		return
	}
	g.staged = true
	n.stagedGroups = append(n.stagedGroups, g)
}

// aggEmit is one visible change of the aggregate output.
type aggEmit struct {
	tuple  types.Tuple
	winner *entry // MIN/MAX: the input entry the output derives from
	sign   int8
}

// update applies one input delta and returns the emitted output changes.
// rule.agg drives the aggregate function; n supplies the arenas retained
// data is carved from.
func (g *aggGroup) update(n *Node, rule *CompiledRule, e *entry, sign int8) []aggEmit {
	spec := rule.agg
	i, found := g.search(spec, e)
	var gone *entry
	switch sign {
	case Insert:
		if found {
			return nil // already a row: an entry enters its group once
		}
		if g.rows == nil {
			g.rows = n.aggRowArena.Cap1()
		}
		g.rows = slices.Insert(g.rows, i, e)
		// MIN/MAX fast path: the output only moves when the group had no
		// output yet or rows[0] changed. Rows worse than the winner are the
		// common case in route computation and skip refresh.
		if spec.ordered() && g.hasOut && i > 0 {
			return nil
		}
	case Delete:
		if !found {
			return nil // deletion of an unseen row: ignore defensively
		}
		g.rows = slices.Delete(g.rows, i, i+1)
		// MIN/MAX fast path: removing a row that is neither first nor the
		// traced winner leaves the output and its derivation untouched.
		if spec.ordered() && g.hasOut && i > 0 && e != g.curWin {
			return nil
		}
		gone = e
	default:
		return nil
	}
	return g.refresh(n, rule, gone)
}

// search binary-searches the rows for e: its index and true if present,
// else its insertion index and false.
func (g *aggGroup) search(spec *AggSpec, e *entry) (int, bool) {
	lo, hi := 0, len(g.rows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rowCmp(spec, g.rows[m], e) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(g.rows) && g.rows[lo] == e
}

// keyCmp orders two input entries by their aggregate key, the args at
// spec.keyPos: the aggregated value first (descending for MAX, ascending
// otherwise), then the carried or listed values, ascending.
func keyCmp(spec *AggSpec, a, b *entry) int {
	for i, p := range spec.keyPos {
		c := a.Tuple.Args[p].Compare(b.Tuple.Args[p])
		if i == 0 && spec.Fn == "MAX" {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// rowCmp is aggregate order: keyCmp, with ties broken by the entries' args.
// A relation holds one entry per args, so it is zero only for an entry
// against itself, and the order — the winner among tied inputs included —
// derives from content alone.
func rowCmp(spec *AggSpec, a, b *entry) int {
	if c := keyCmp(spec, a, b); c != 0 {
		return c
	}
	x, y := a.Tuple.Args, b.Tuple.Args
	for i := 0; i < len(x) && i < len(y); i++ {
		if c := x[i].Compare(y[i]); c != 0 {
			return c
		}
	}
	return len(x) - len(y)
}

// refresh recomputes the output tuple and diffs it against the currently
// emitted one. The returned slice aliases the scratch's emit buffer and is
// valid until the next refresh of any group on the node. The steady-state
// path — an input delta that does not change the output — allocates
// nothing, and a changed output carves its retained argument slice from the
// node's arena.
//
// gone is the entry a Delete just removed, nil after an insert or a release.
// For rules whose head predicate is recursive, a delete-driven output
// re-emission is a winner promotion the retraction protocol must defer: the
// Delete of the old output still cascades, but the Insert of the replacement
// is withheld and the group staged until the deletion wave quiesces. Once
// staged, the group stays output-silent through further refreshes
// (insert-driven ones included — an arriving insert would otherwise promote
// a phantom row) until releaseStaged re-refreshes it.
//
// When the winner changes but the output does not (inputs tied in aggregate
// order), a non-recursive head moves its one derivation to the new winner,
// emitting the new derivation before retracting the old so the head stays
// visible throughout. A recursive head keeps a live winner instead — the
// tied newcomer may derive from the head itself, and retracting the old
// derivation would over-delete the head — and on losing it retracts and
// stages like any delete-driven promotion.
func (g *aggGroup) refresh(n *Node, rule *CompiledRule, gone *entry) []aggEmit {
	spec := rule.agg
	deleting := gone != nil
	newArgs, ok := g.compute(n, spec)
	var win *entry
	if ok && spec.ordered() {
		win = g.rows[0]
	}
	emits := n.sc.aggEmitBuf[:0]
	if g.hasOut {
		same := ok && slices.Equal(g.curOut.Args, newArgs)
		switch {
		case same && (win == g.curWin || rule.headRecursive && gone != g.curWin):
			// Neither the output nor its derivation moves.
		case same && !rule.headRecursive:
			emits = append(emits,
				aggEmit{tuple: g.curOut, sign: Insert, winner: win},
				aggEmit{tuple: g.curOut, sign: Delete, winner: g.curWin})
			g.curWin = win
		default:
			emits = append(emits, aggEmit{tuple: g.curOut, sign: Delete, winner: g.curWin})
			g.curOut, g.hasOut, g.curWin = types.Tuple{}, false, nil
		}
	}
	if !ok && deleting && rule.headRecursive {
		// The delete emptied the group. Stage it anyway: an insert arriving
		// before the deletion wave quiesces (a stale re-advertisement
		// around a cycle) must not refill and promote immediately — that
		// reopens the count-to-infinity lap through an empty group.
		g.stage(n)
	}
	if ok && !g.hasOut {
		if g.staged || (deleting && rule.headRecursive) {
			g.stage(n)
		} else {
			// Materialize the candidate output: it escapes into the group
			// state and the emitted delta, so its args leave the scratch
			// buffer for the arena.
			g.curOut, g.hasOut, g.curWin = types.Tuple{Args: n.argArena.Copy(newArgs)}, true, win
			emits = append(emits, aggEmit{tuple: g.curOut, sign: Insert, winner: win})
		}
	}
	n.sc.aggEmitBuf = emits
	return emits
}

// compute evaluates the aggregate over the current rows into the scratch's
// reusable args buffer. It reports ok=false when the group emits nothing.
func (g *aggGroup) compute(n *Node, spec *AggSpec) ([]types.Value, bool) {
	if len(g.rows) == 0 {
		return nil, false
	}
	var aggList types.Value
	if spec.Fn == "AGGLIST" {
		// Rows with equal listed values are adjacent in aggregate order; the
		// list holds each distinct tuple of values once.
		var list []types.Value
		for i, e := range g.rows {
			if i > 0 && keyCmp(spec, g.rows[i-1], e) == 0 {
				continue
			}
			vals := make([]types.Value, len(spec.keyPos))
			for j, p := range spec.keyPos {
				vals[j] = e.Tuple.Args[p]
			}
			list = append(list, types.List(vals...))
		}
		aggList = types.List(list...)
	}

	// Assemble the head: group values in order, aggregate values spliced
	// in at the aggregate position.
	args := n.sc.aggArgsBuf[:0]
	gi := 0
	for pos := 0; pos <= len(g.groupVals); pos++ {
		if pos == spec.AggPos {
			switch spec.Fn {
			case "MIN", "MAX":
				for _, p := range spec.keyPos {
					args = append(args, g.rows[0].Tuple.Args[p])
				}
			case "COUNT":
				args = append(args, types.Int(int64(len(g.rows))))
			case "AGGLIST":
				args = append(args, aggList)
			}
			continue
		}
		args = append(args, g.groupVals[gi])
		gi++
	}
	n.sc.aggArgsBuf = args
	return args, true
}
