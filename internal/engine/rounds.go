package engine

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bdd"
	"repro/internal/types"
)

// This file is the engine's RUNTIME layer for sharded nodes: a batched
// round executor that replaces the serial inline drain when a node has more
// than one worker shard. Each round has three phases:
//
//  1. APPLY (parallel over shards). Every shard drains its own ring of
//     deltas, mutating only state it owns: relation entries, index
//     postings, prov rows in its store partition, aggregate groups routed
//     to it. Firing is deferred — the shard records the round's net
//     visibility transitions (markTouched) and incoming event deltas.
//  2. FIRE (parallel over shards). State is frozen; shards evaluate rule
//     plans for their net transitions, probing every shard's indexes
//     read-only under the batched semi-naïve old/new discipline (exec.go).
//     Derivations are buffered: local head deltas, aggregate updates for
//     other shards' groups, outbound messages, deferred ruleExec rows.
//  3. MERGE (parallel over destinations). Fire-phase buffers are bucketed
//     by destination shard at emit time, so the barrier commits
//     per-destination: one worker per shard d runs d's deferred index
//     removals and tombstone sweeps, replays every source's ruleExec ops
//     homed in partition d, and drains every source's d-destined deltas
//     and aggregate updates into d's next-round rings — always visiting
//     sources in shard-index order, so each destination sees exactly the
//     sequence the old serial barrier produced. Destinations own disjoint
//     state (their relations, store partition, rings), so the workers
//     cannot race; the transport flush and deferred provenance-change
//     notifications stay serial, in shard order, after the workers join.
//
// Rounds repeat until no shard has pending work. For a fixed shard count
// the execution is fully deterministic; across shard counts the fixpoint
// state (relations, provenance rows, counters of net derivations) is
// identical, while transient aggregate outputs may be elided by batching
// (see ARCHITECTURE.md "Sharded runtime").
//
// All three phases run inline, in shard order, when the host has no
// parallelism (GOMAXPROCS=1) or the round's occupancy is below
// minFanOutWork — the adaptive gate: parallel and inline execution are
// bit-identical by construction, so thin rounds skip the goroutine handoff
// and small nodes collapse to the serial path regardless of the configured
// shard count.

// fireItem is one deferred firing: either an event delta (fires with its
// own sign) or a stored entry touched this round (fires with its net
// visibility transition, or not at all when the batch nets to zero).
type fireItem struct {
	tuple   types.Tuple
	occs    []occurrence
	ent     *entry    // nil for events
	rel     *Relation // owning relation, for deferred index maintenance
	sign    int8      // events only; stored entries resolve at fire time
	isEvent bool
}

// aggItem is one aggregate-group update shipped to the group's owner shard.
type aggItem struct {
	rule      *CompiledRule
	groupVals []types.Value
	sortVal   types.Value
	carried   []types.Value
	input     types.Tuple
	sign      int8
}

// outMsg is one buffered cross-node message.
type outMsg struct {
	to types.NodeID
	m  *Message
}

// reOp is one deferred ruleExec-row change. Inserts and deletes of the same
// RID can fire on different shards (whichever owned the triggering delta),
// so the ops replay at the merge barrier into the RID's home partition —
// keeping every add/del pair in one map. vid offsets slice the shard's
// reVIDs arena.
type reOp struct {
	rid    types.ID
	sign   int8
	label  string
	vidOff int
	vidLen int
}

// roundShard is the per-shard slice of round-runtime state. outLocal,
// outAgg and reOps are bucketed by destination shard (respectively the head
// tuple's owner, the aggregate group's owner, and the RID's home partition)
// at emit time, so the merge barrier can commit each destination's stream
// on its own worker without re-routing.
type roundShard struct {
	fires    []fireItem
	outLocal [][]localDelta
	outAgg   [][]aggItem
	outMsgs  []outMsg
	aggIn    []aggItem
	reOps    [][]reOp
	reVIDs   []types.ID
	keyBufs  [][]byte // per-plan-step probe keys (exec.go round probing)
}

// initRounds sizes the per-shard round state once the shard set is final.
//
//exspan:merge-phase
func (n *Node) initRounds() {
	for _, sh := range n.shards {
		sh.rs.keyBufs = make([][]byte, n.Prog.maxSteps)
		sh.rs.outLocal = make([][]localDelta, len(n.shards))
		sh.rs.outAgg = make([][]aggItem, len(n.shards))
		sh.rs.reOps = make([][]reOp, len(n.shards))
	}
}

// markTouched records a stored entry's first touch of the round: its
// start-of-round visibility (against which the net transition and the
// old-state probe admissions are decided) and a fire-list slot.
//
//exspan:hotpath
func (sh *shard) markTouched(rel *Relation, e *entry, occs []occurrence) {
	if e.touchRound == sh.n.curRound {
		return
	}
	e.touchRound = sh.n.curRound
	e.startVis = e.visible
	sh.rs.fires = append(sh.rs.fires, fireItem{tuple: e.tuple, occs: occs, ent: e, rel: rel})
}

// applyPhase drains the shard's delta ring and applies aggregate updates
// routed to this shard's groups. Only owner-local state is mutated.
//
//exspan:hotpath
func (sh *shard) applyPhase() {
	for sh.qhead < len(sh.queue) && sh.err == nil {
		sh.process(sh.popDelta(), true)
	}
	if sh.qhead == len(sh.queue) {
		sh.queue = sh.queue[:0]
		sh.qhead = 0
	}
	for i := range sh.rs.aggIn {
		if sh.err != nil {
			break
		}
		sh.applyAggItem(&sh.rs.aggIn[i])
	}
	clearAggItems(sh.rs.aggIn)
	sh.rs.aggIn = sh.rs.aggIn[:0]
}

// firePhase evaluates the deferred firings against the frozen post-apply
// state. Stored entries whose batch netted to zero are skipped; the rest
// fire once with their net sign.
//
//exspan:hotpath
func (sh *shard) firePhase() {
	for i := range sh.rs.fires {
		if sh.err != nil {
			return
		}
		it := &sh.rs.fires[i]
		sign := it.sign
		var ent *entry
		if !it.isEvent {
			e := it.ent
			if e.startVis == e.visible {
				continue // net zero: transient within the round
			}
			if e.visible {
				sign = Insert
			} else {
				sign = Delete
			}
			ent = e
		}
		for _, occ := range it.occs {
			if occ.rule.agg != nil {
				sh.fireAggRound(occ.rule, it.tuple, sign)
			} else {
				payload := bdd.False
				if ent != nil {
					payload = ent.payload
				}
				sh.firePlan(occ.rule, occ.pos, it.tuple, sign, ent, payload)
			}
		}
	}
}

// fireAggRound evaluates an aggregate rule's body for a net delta and ships
// the group update to the group's owner shard (applied in its next apply
// phase). Group values and carried values are copied out of scratch into
// the shard's value arena.
//
//exspan:hotpath
func (sh *shard) fireAggRound(rule *CompiledRule, t types.Tuple, sign int8) {
	env, ok := sh.evalAggBody(rule, t)
	if !ok {
		return
	}
	spec := rule.agg
	groupVals := sh.groupBuf[:len(spec.groupCode)]
	for i, code := range spec.groupCode {
		v, err := code(env)
		if err != nil {
			//exspanlint:alloc-ok error path: evaluation aborts on the first failure
			sh.fail(fmt.Errorf("rule %s group: %w", rule.Label, err))
			return
		}
		groupVals[i] = v
	}
	sortVal, carried := sh.evalAggVals(rule, env)
	gv := sh.argArena.Copy(groupVals)
	cv := sh.argArena.Copy(carried)
	dst := int(types.HashValues(gv) % uint64(len(sh.n.shards)))
	sh.rs.outAgg[dst] = append(sh.rs.outAgg[dst], aggItem{
		rule: rule, groupVals: gv, sortVal: sortVal, carried: cv, input: t, sign: sign,
	})
}

// applyAggItem applies one routed aggregate update to this shard's group
// state, emitting any net output change as local head deltas for the next
// round.
func (sh *shard) applyAggItem(it *aggItem) {
	rule := it.rule
	g := sh.aggGroupFor(rule, it.groupVals)
	for _, em := range g.update(sh, rule, it.groupVals, it.sortVal, it.carried, it.input, it.sign) {
		out := em.tuple
		out.Pred = rule.HeadPred
		sh.emitAggChange(rule, out, em, it.input)
	}
}

// deferRuleExecRow buffers a ruleExec-row change for the merge barrier,
// bucketed by the RID's home partition.
func (sh *shard) deferRuleExecRow(rid types.ID, label string, inputVIDs []types.ID, sign int8) {
	off, k := len(sh.rs.reVIDs), 0
	if sign == Insert { // deletes never materialize a new row; skip the copy
		sh.rs.reVIDs = append(sh.rs.reVIDs, inputVIDs...)
		k = len(inputVIDs)
	}
	dst := sh.n.ridHomeIdx(rid)
	sh.rs.reOps[dst] = append(sh.rs.reOps[dst], reOp{
		rid: rid, label: label, sign: sign, vidOff: off, vidLen: k,
	})
}

// ridHomeIdx maps an RID to the partition index its ruleExec row lives in:
// a content-derived hash so add/del pairs always meet, whatever shards they
// fired on.
func (n *Node) ridHomeIdx(rid types.ID) int {
	return int(binary.BigEndian.Uint64(rid[:8]) % uint64(len(n.shards)))
}

// replayRuleExecOpsTo applies this shard's deferred ruleExec ops homed in
// partition d (merge barrier; called only by destination d's merge worker).
// The shared reVIDs arena is read-only here and truncated by the serial
// merge epilogue once every destination has replayed.
func (sh *shard) replayRuleExecOpsTo(d int) {
	part := sh.n.Store.Part(d)
	ops := sh.rs.reOps[d]
	for i := range ops {
		op := &ops[i]
		applyRuleExecRow(part, op.rid, op.label, sh.rs.reVIDs[op.vidOff:op.vidOff+op.vidLen], op.sign)
		ops[i] = reOp{}
	}
	sh.rs.reOps[d] = ops[:0]
}

// mergeShard commits destination d's slice of the merge barrier: shard d's
// deferred index removals and tombstone sweeps, the replay of every source
// shard's ruleExec ops homed in partition d, and the drain of every
// source's d-destined local deltas and aggregate updates into d's
// next-round rings. Sources are visited in shard-index order, so the
// per-destination sequence is exactly the subsequence the old serial
// barrier fed this destination — bit-identity across worker schedules is
// by construction. Every structure touched is owned by destination d
// (its relations and entries, its store partition, its rings) or is a
// d-indexed bucket of a source's emit buffers, so concurrent mergeShard
// calls for different destinations never share mutable state.
//
//exspan:merge-phase
func (n *Node) mergeShard(d int) {
	sh := n.shards[d]
	// Deferred index maintenance: entries whose net transition was to
	// invisible leave the indexes now that no probe can be in flight.
	for i := range sh.rs.fires {
		it := &sh.rs.fires[i]
		if it.ent != nil && !it.ent.visible && it.ent.indexed {
			it.rel.unindex(it.ent)
		}
		sh.rs.fires[i] = fireItem{}
	}
	sh.rs.fires = sh.rs.fires[:0]
	for i := range sh.tablesByID {
		sh.tablesByID[i].maybeSweepRound()
	}
	for _, rel := range sh.extraTables {
		rel.maybeSweepRound()
	}
	for _, src := range n.shards {
		src.replayRuleExecOpsTo(d)
	}
	for _, src := range n.shards {
		bucket := src.rs.outLocal[d]
		for i := range bucket {
			sh.enqueue(bucket[i])
			bucket[i] = localDelta{}
		}
		src.rs.outLocal[d] = bucket[:0]
		ab := src.rs.outAgg[d]
		sh.rs.aggIn = append(sh.rs.aggIn, ab...)
		clearAggItems(ab)
		src.rs.outAgg[d] = ab[:0]
	}
}

// mergeRound is the barrier closing one round. Destination commits fan out
// across workers (or run inline in shard order — identical results either
// way); the transport flush stays serial in shard-index order, so the wire
// sees one deterministic sequence regardless of goroutine scheduling.
//
//exspan:merge-phase
func (n *Node) mergeRound(fanOut bool) {
	if fanOut {
		var wg sync.WaitGroup
		wg.Add(len(n.shards))
		for d := range n.shards {
			go func(d int) {
				defer wg.Done()
				n.mergeShard(d)
			}(d)
		}
		wg.Wait()
	} else {
		for d := range n.shards {
			n.mergeShard(d)
		}
	}
	for _, sh := range n.shards {
		for i := range sh.rs.outMsgs {
			om := sh.rs.outMsgs[i]
			sh.rs.outMsgs[i] = outMsg{}
			n.Transport.Send(n.ID, om.to, om.m)
		}
		sh.rs.outMsgs = sh.rs.outMsgs[:0]
		sh.rs.reVIDs = sh.rs.reVIDs[:0]
	}
	n.syncErr()
}

func clearAggItems(items []aggItem) {
	for i := range items {
		items[i] = aggItem{}
	}
}

// anyPending reports whether any shard has queued deltas or aggregate
// updates.
func (n *Node) anyPending() bool {
	for _, sh := range n.shards {
		if sh.pending() {
			return true
		}
	}
	return false
}

// minFanOutWork is the adaptive gate's occupancy threshold: rounds opening
// with fewer pending deltas and aggregate updates than this run all three
// phases inline — the goroutine handoff would cost more than the round's
// work. Safe at any value because inline and fanned-out execution are
// bit-identical by construction.
const minFanOutWork = 64

// roundWork counts the deltas and aggregate updates pending at a round
// boundary — the occupancy the adaptive gate compares against
// minFanOutWork.
//
//exspan:merge-phase
func (n *Node) roundWork() int {
	w := 0
	for _, sh := range n.shards {
		w += len(sh.queue) - sh.qhead + len(sh.rs.aggIn)
	}
	return w
}

// runRounds executes batched rounds until the node is locally quiescent.
// Apply and fire phases fan out across shard goroutines; merge runs on the
// calling goroutine. Re-entrant calls (a synchronous transport delivering a
// message back to this node mid-merge) just deposit and return — the outer
// loop picks the work up next round.
//
//exspan:merge-phase
func (n *Node) runRounds() {
	if n.inRounds {
		return
	}
	n.inRounds = true
	defer func() { n.inRounds = false }()
	// Phase results are goroutine-schedule-independent by construction, so
	// on a single-CPU host the fan-out is pure overhead and the phases run
	// inline in shard order instead; parallel hosts make the same inline
	// collapse per round when occupancy is below minFanOutWork.
	parallel := runtime.GOMAXPROCS(0) > 1
	var wg sync.WaitGroup
	for n.Err == nil && n.anyPending() {
		fanOut := parallel && n.roundWork() >= minFanOutWork
		n.curRound++
		n.Store.DeferChanges()
		for _, sh := range n.shards {
			if !sh.pending() {
				continue
			}
			if !fanOut {
				sh.applyPhase()
				continue
			}
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				sh.applyPhase()
			}(sh)
		}
		wg.Wait()
		for _, sh := range n.shards {
			if len(sh.rs.fires) == 0 {
				continue
			}
			if !fanOut {
				sh.firePhase()
				continue
			}
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				sh.firePhase()
			}(sh)
		}
		wg.Wait()
		n.mergeRound(fanOut)
		n.Store.FlushDeferred()
	}
}
