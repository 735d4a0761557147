package engine

import (
	"repro/internal/algebra"
	"repro/internal/provenance"
	"repro/internal/types"
)

// This file is the queue-and-apply half of a node's evaluation: the delta
// ring and process(), which applies one delta to relations, derivation
// counts and provenance rows. It only applies: firing is deferred to the
// round's fire phase (rounds.go).

// localDelta is one unit of PSN work in a node's FIFO queue. Field order
// is alignment-packed (exspanlint -fieldalign): the 1-byte sign/isBase pair
// trails the word- and 4-byte-aligned fields, saving 8 bytes per queued
// delta (72 vs 80).
type localDelta struct {
	tuple   types.Tuple
	rid     types.ID
	rloc    types.NodeID
	payload algebra.Payload // value mode: provenance of this derivation
	sign    int8
	isBase  bool
}

//exspan:hotpath
func (n *Node) enqueue(d localDelta) { n.queue = append(n.queue, d) }

// popDelta removes and returns the next pending delta of the ring.
// The queue is a head-index ring over one slice: popping advances qhead
// instead of re-slicing, and the slice capacity is reused across bursts
// rather than re-allocated per enqueue wave.
//
//exspan:hotpath
func (n *Node) popDelta() localDelta {
	// Compact once the consumed prefix dominates so a long-lived burst
	// cannot grow the slice without bound.
	if n.qhead >= 1024 && 2*n.qhead >= len(n.queue) {
		m := copy(n.queue, n.queue[n.qhead:])
		tail := n.queue[m:]
		for i := range tail {
			tail[i] = localDelta{}
		}
		n.queue = n.queue[:m]
		n.qhead = 0
	}
	d := n.queue[n.qhead]
	n.queue[n.qhead] = localDelta{} // release tuple/payload references
	n.qhead++
	if n.qhead == len(n.queue) {
		n.queue = n.queue[:0]
		n.qhead = 0
	}
	return d
}

func (n *Node) pending() bool { return n.qhead < len(n.queue) || len(n.aggIn) > 0 }

// process applies one delta to the node's state. Firing is deferred: an
// event goes on the fire list, a stored entry's first touch of the round is
// recorded by markTouched, and the fire phase (rounds.go) evaluates the
// net effect.
//
//exspan:hotpath
func (n *Node) process(d localDelta) {
	n.deltasProcessed++
	// One predicate lookup serves event-ness, triggered occurrences and the
	// relation: the PredInfo carries them all from compile time, and every
	// queued delta's predicate is declared (Node.admit).
	info := n.Prog.Pred(d.tuple.Pred)
	occs := info.occs
	if info.Event {
		// Events are transient: fire rules, never materialize. Both
		// insertion and deletion deltas flow through events — the
		// rewritten provenance-maintenance programs rely on deletion
		// deltas cascading through their eHTemp/eH events ("rule r20
		// compiles into a series of insertion and deletion delta rules").
		// Event provenance rows are recorded symmetrically so data-plane
		// activity (e.g. packet forwarding) can be traced.
		if d.sign != Insert && d.sign != Delete {
			return // neither Update nor rederive applies to transient events
		}
		if n.Mode == ProvReference {
			// Events have no entry to embed the vertex in; hash and find
			// it once per delta. A delete only looks it up: a VID without
			// a vertex has no row to remove.
			var vid types.ID
			vid, n.hashBuf = d.tuple.VIDBuf(n.hashBuf)
			if d.sign == Insert {
				n.Store.AddProv(n.Store.Vertex(vid, d.tuple), d.rid, d.rloc)
			} else if v := n.Store.Lookup(vid); v != nil {
				n.Store.DelProv(v, d.rid)
			}
		}
		// Centralized: base events are reported by their injector; derived
		// events were already reported by the deriving node.
		if n.Mode == ProvCentralized && d.isBase {
			var vid types.ID
			vid, n.hashBuf = d.tuple.VIDBuf(n.hashBuf)
			n.sendProvRow(n.ID, vid, types.ZeroID, n.ID, d.sign)
		}
		n.fires = append(n.fires, fireItem{tuple: d.tuple, occs: occs, sign: d.sign, payload: d.payload, isEvent: true})
		return
	}

	// The provenance meta-relations themselves (rows relayed to a
	// centralized server, or produced by a rewrite-generated program) are
	// stored without further provenance bookkeeping.
	meta := info.meta
	rel := &n.tablesByID[info.tableID]
	// In reference mode a non-meta entry's rows are the store's: the store
	// registers the embedded vertex with its first row and forgets it with
	// its last. Every other entry keeps its rows to itself.
	stored := n.Mode == ProvReference && !meta
	switch d.sign {
	case Insert:
		e := rel.getOrCreate(&n.pool, d.tuple)
		n.markTouched(rel, e, occs)
		var row *provenance.ProvEntry
		if stored {
			// The entry caches the canonical VID, so each stored tuple is
			// hashed at most once per lifetime regardless of how many
			// deltas and provenance branches touch it.
			_, n.hashBuf = e.VIDBuf(n.hashBuf)
			row = n.Store.AddProv(&e.Vertex, d.rid, d.rloc)
		} else {
			row = e.AddRow(d.rid, d.rloc)
		}
		// Centralized: the deriving node reports derived rows; the owner
		// reports base rows.
		if n.Mode == ProvCentralized && !meta && d.isBase {
			var vid types.ID
			vid, n.hashBuf = e.VIDBuf(n.hashBuf)
			n.sendProvRow(n.ID, vid, types.ZeroID, n.ID, Insert)
		}
		if n.Mode == ProvValue {
			payload := d.payload
			if d.isBase {
				var vid types.ID
				vid, n.hashBuf = e.VIDBuf(n.hashBuf)
				payload = n.Ring.FromBase(algebra.Base{VID: vid, Node: n.ID})
			}
			row.Payload = uint32(payload)
			n.recomputePayload(e)
		}
		// Retraction phase 1: a staged suspect absorbs new support silently.
		// Re-showing it here would let the insert wave race the
		// still-running deletion wave around derivation cycles (a hide/show
		// flap that never quiesces); the release re-shows it — with this
		// derivation counted — once the deletion wave is done.
		if !e.staged {
			rel.setVisible(&n.pool, e, true)
		}

	case Delete:
		e := rel.get(&n.pool, d.tuple)
		if e == nil {
			return
		}
		var found, removed bool
		if stored {
			found, removed = n.Store.DelProv(&e.Vertex, d.rid)
		} else {
			found, removed = e.DelRow(d.rid)
		}
		if !found {
			return
		}
		n.markTouched(rel, e, occs)
		if n.Mode == ProvCentralized && !meta && d.isBase {
			var vid types.ID
			vid, n.hashBuf = e.VIDBuf(n.hashBuf)
			n.sendProvRow(n.ID, vid, types.ZeroID, n.ID, Delete)
		}
		switch {
		case len(e.Rows) == 0:
			if e.visible {
				rel.setVisible(&n.pool, e, false)
			} else {
				// A suspect lost its last alternate while hidden; count the
				// tombstone setVisible never saw.
				rel.dead++
			}
		case removed && e.visible && info.Recursive && !meta:
			// Over-deletion (retraction phase 1): a recursive tuple that
			// lost a derivation is hidden even though alternates remain —
			// the alternates may be phantom cyclic support — and staged for
			// the re-derivation phase, which re-shows it only if support
			// survives the completed deletion wave (see ARCHITECTURE.md
			// "Deletion semantics").
			rel.setVisible(&n.pool, e, false)
			n.stageEntry(e)
		case n.Mode == ProvValue:
			n.recomputePayload(e)
		}

	case rederive:
		// Retraction phase 2: re-show an over-deleted tuple whose alternate
		// derivations survived the deletion wave, firing the ordinary
		// insert cascade so consumers re-derive from it.
		e := rel.get(&n.pool, d.tuple)
		if e == nil || e.visible || len(e.Rows) == 0 {
			return
		}
		n.markTouched(rel, e, occs)
		if n.Mode == ProvValue {
			n.recomputePayload(e)
		}
		rel.setVisible(&n.pool, e, true)

	case Update:
		if n.Mode != ProvValue {
			return
		}
		e := rel.get(&n.pool, d.tuple)
		if e == nil {
			return
		}
		row := e.Row(d.rid)
		if row == nil {
			return
		}
		n.markTouched(rel, e, occs)
		row.Payload = uint32(d.payload)
		// The fire phase propagates a moved payload only for a tuple that
		// stayed visible: suspects absorb payload updates silently.
		n.recomputePayload(e)
	}
}

// recomputePayload refreshes the entry's payload, the ring sum over its
// derivations'; it reports whether the handle, and so the function, changed.
func (n *Node) recomputePayload(e *entry) bool {
	comb := n.Ring.Zero()
	for i := range e.Rows {
		comb = n.Ring.Add(comb, algebra.Payload(e.Rows[i].Payload))
	}
	if comb == e.payload {
		return false
	}
	e.payload = comb
	return true
}

// fireAll runs every rule occurrence triggered by a delta of this
// predicate, from the fire phase. deltaEntry is nil only for events, which
// Compile keeps out of aggregate bodies; payload is the tuple's current
// provenance payload in value mode.
//
//exspan:hotpath
func (n *Node) fireAll(occs []occurrence, t types.Tuple, sign int8, deltaEntry *entry, payload algebra.Payload) {
	for _, occ := range occs {
		if occ.rule.agg != nil {
			n.fireAgg(occ.rule, deltaEntry, sign)
		} else {
			n.firePlan(occ.rule, occ.pos, t, sign, deltaEntry, payload)
		}
	}
}
