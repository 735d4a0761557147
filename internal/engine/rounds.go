package engine

import (
	"repro/internal/algebra"
	"repro/internal/types"
)

// This file is the node's executor: every ingest runs batched rounds until
// nothing is pending. A driver decides only how much one ingest holds — one
// message (simulator, deployment, synchronous transports) or a whole
// scheduler round of them (Scheduler). Evaluating a round as one batch nets
// out transient visibility flips and aggregate re-elections before anything
// is derived from them, which is where CHORD's 3.76× wire-byte saving on the
// Scheduler comes from (PERFORMANCE.md "Why every node runs rounds"). Each
// round has three steps, all on the calling goroutine:
//
//  1. APPLY. The delta ring is drained into relation entries, index
//     postings, prov rows and — from aggIn — aggregate groups. Firing is
//     deferred: the node records the round's net visibility transitions
//     and value-mode payload changes (markTouched) and incoming event
//     deltas.
//  2. FIRE. State is frozen; rule plans are evaluated for the net
//     transitions under the batched semi-naïve old/new discipline (exec.go).
//     Derived local head deltas go straight to the ring and aggregate
//     updates to aggIn — both just emptied by the apply step, so they form
//     the next round's input — ruleExec rows are written where they fire,
//     and cross-node messages are sent in emission order.
//  3. END OF ROUND. Entries whose net transition was to invisible leave the
//     indexes (probes of this round still needed them for OLD-state
//     admission) and relations dominated by tombstones are swept.
//
// Rounds repeat until nothing is pending. The execution is deterministic:
// one goroutine, FIFO rings, candidate enumeration in index-bucket order.
// However a driver sizes its ingests, the fixpoint state (relations,
// provenance rows, net derivations) is identical; only transient aggregate
// outputs may be elided by larger batches (see ARCHITECTURE.md "Batched
// rounds under the Scheduler").

// fireItem is one deferred firing: either an event delta (fires with its
// own sign and payload) or a stored entry touched this round (fires with its
// net change and current payload, or not at all when the batch nets to
// zero). A stored entry's tuple is read off the entry at fire time; only an
// event's is kept, on the scratch's event list.
type fireItem struct {
	info    *PredInfo       // the delta's predicate: the occurrences it triggers
	ent     *entry          // nil for events
	payload algebra.Payload // value mode: an event's own; an entry's at round start
	event   int32           // events only: the tuple's index in scratch.events
	sign    int8            // events only; stored entries resolve at fire time
}

// aggItem is one aggregate-group update awaiting the next apply step: the
// input entry, pinned against the sweep while queued (entry.aggQueued).
type aggItem struct {
	g    *aggGroup
	ent  *entry
	sign int8
}

// markTouched records a stored entry's first touch of a round, before the
// delta changes it: its start-of-round visibility and payload (against which
// the net change and the old-state probe admissions are decided) and a
// fire-list slot.
//
//exspan:hotpath
func (n *Node) markTouched(e *entry, info *PredInfo) {
	if e.touchRound == n.curRound {
		return
	}
	e.touchRound = n.curRound
	e.startVis = e.visible
	n.sc.fires = append(n.sc.fires, fireItem{info: info, ent: e, payload: e.payload})
}

// markEvent puts an event delta on the fire list: it fires with its own
// sign and payload.
//
//exspan:hotpath
func (n *Node) markEvent(d *localDelta, info *PredInfo) {
	sc := n.sc
	sc.fires = append(sc.fires, fireItem{info: info, payload: d.payload, event: int32(len(sc.events)), sign: d.sign})
	sc.events = append(sc.events, d.tuple)
}

// applyPhase drains the delta ring and applies the aggregate updates the
// previous fire step produced. Aggregate output changes re-enter the ring
// behind the drained batch, for the next round.
//
//exspan:hotpath
func (n *Node) applyPhase() {
	for n.qhead < len(n.queue) && n.Err == nil {
		n.process(n.popDelta())
	}
	// Sweeps run only at the end of a round, so a queued entry may be
	// unpinned before its update applies.
	sc := n.sc
	for i := range sc.aggIn {
		it := &sc.aggIn[i]
		it.ent.aggQueued = false
		if n.Err == nil {
			n.applyAgg(it.g, it.ent, it.sign)
		}
	}
	clear(sc.aggIn)
	sc.aggIn = sc.aggIn[:0]
}

// firePhase evaluates the deferred firings against the frozen post-apply
// state. A stored entry fires once with its net change — Insert, Delete, or
// Update for a value-mode payload that moved while it stayed visible — and
// the payloads read now, the round's final ones.
//
//exspan:hotpath
func (n *Node) firePhase() {
	sc := n.sc
	for i := range sc.fires {
		if n.Err != nil {
			break
		}
		it := &sc.fires[i]
		sign, payload := it.sign, it.payload
		if e := it.ent; e != nil {
			switch {
			case e.startVis != e.visible && e.visible:
				sign = Insert
			case e.startVis != e.visible:
				sign = Delete
			case e.visible && e.payload != it.payload:
				sign = Update
			default:
				continue // net zero: transient within the round
			}
			sc.fireTuple, payload = e.Tuple, e.payload
		} else {
			sc.fireTuple = sc.events[it.event]
		}
		sc.firePayload = payload
		n.fireAll(it.info.occs, sign, it.ent)
	}
	sc.fireTuple = types.Tuple{} // hold no fired tuple's arguments past the phase
}

// endRound closes a round: entries whose net transition was to invisible
// leave the indexes now that no probe of the round can still want their
// start-of-round state, and tombstone-dominated relations are swept.
func (n *Node) endRound() {
	sc := n.sc
	for i := range sc.fires {
		if e := sc.fires[i].ent; e != nil && !e.visible && e.indexed {
			n.pool.unindex(n.Prog.tables[e.table], e)
		}
	}
	clear(sc.fires)
	sc.fires = sc.fires[:0]
	clear(sc.events)
	sc.events = sc.events[:0]
	for _, info := range n.Prog.tables[:len(n.pool.counts)] {
		if n.pool.sweepDue(info) {
			n.pool.sweep(info, n.Store)
		}
	}
}

// runRounds executes rounds until the node is locally quiescent, on a
// scratch it borrows for the run and returns at quiescence. Re-entrant calls
// (a synchronous transport delivering a message back to this node mid-fire)
// find the scratch held and return — the loop picks the work up next round.
func (n *Node) runRounds() {
	if !n.borrow() {
		return
	}
	defer n.giveBack()
	for n.Err == nil && n.pending() {
		n.curRound++
		n.applyPhase()
		n.firePhase()
		n.endRound()
	}
}
