package engine

import (
	"repro/internal/algebra"
	"repro/internal/bdd"
	"repro/internal/types"
)

// This file is the engine's evaluation-state layer. A node's shard is its
// whole evaluation state — relations, join indexes, aggregate groups, the
// delta ring and the scratch arenas rule firing reuses; a node has exactly
// one. Under the inline drain, process() applies a delta and fires its rules
// inline, FIFO, to local quiescence. Under batched rounds (rounds.go)
// process() only applies: firing is deferred to the round's fire phase, and
// the round-only code paths are the rm branches below.

// localDelta is one unit of PSN work in a node's FIFO queue. Field order
// is alignment-packed (exspanlint -fieldalign): the 1-byte sign/isBase pair
// trails the word- and 4-byte-aligned fields, saving 8 bytes per queued
// delta (72 vs 80).
type localDelta struct {
	tuple   types.Tuple
	rid     types.ID
	rloc    types.NodeID
	payload bdd.Ref // value mode: decoded provenance of this derivation
	sign    int8
	isBase  bool
}

// shard is the evaluation state of a Node.
type shard struct {
	n *Node

	queue []localDelta
	qhead int // drain ring head: queue[qhead:] is pending work

	// Compiled access paths: each stepJoin's index handle, resolved once
	// at plan-bind time (newShard) and indexed by joinID, so a join probe
	// never re-derives the index from its position list.
	joinIdx []*index
	// tablesByID holds the relations of the program's stored predicates,
	// indexed by PredInfo.tableID: the program's predicate table is the
	// only name→relation map. aggByRule and aggBodyRel key aggregate state
	// and the aggregate body relation by CompiledRule.idx.
	tablesByID []Relation
	aggByRule  []map[string]*aggGroup
	aggBodyRel []*Relation
	// extraTables lists relations created outside the compiled program
	// (unknown predicates, e.g. the meta rows relayed to a centralized
	// server — a handful at most, found by name scan), in creation order.
	extraTables []*Relation

	// Scratch arenas, sized at program-compile time and reused across rule
	// firings. Safe because firing never re-enters the evaluator: derived
	// deltas are enqueued and processed by drain (or by the next round).
	envBuf     []types.Value
	matchedBuf []types.Tuple
	entBuf     []*entry
	payloadBuf []bdd.Ref
	vidBuf     []types.ID
	groupBuf   []types.Value
	carryBuf   []types.Value
	keyBuf     []byte
	ridBuf     []byte
	hashBuf    []byte
	// argArena backs emitted head arguments (and the group/carried values
	// aggregates retain): emitted tuples escape into relations and
	// messages, so their args cannot live in reusable scratch.
	argArena types.Arena[types.Value]

	// Arenas for aggregate state: group and entry structs plus the scratch
	// every group shares — the entry key, and the candidate output and
	// emit list of one refresh, which each caller consumes before the next
	// (aggGroup.refresh). Aggregates allocate one group per (rule, group-by)
	// combination and one entry per distinct input row; boxing each struct
	// individually was a leading allocation class in fixpoint profiles.
	aggKeyBuf     []byte
	aggArgsBuf    []types.Value
	aggEmitBuf    []aggEmit
	aggEntryArena types.Arena[aggEntry]
	aggGroupArena types.Arena[aggGroup]

	// Retraction-protocol staging (see ARCHITECTURE.md "Deletion
	// semantics"): suspects over-deleted with surviving alternate
	// derivations, and aggregate groups whose winner promotion was
	// deferred. Both lists are drained by releaseStaged once the driver
	// detects that the cluster-wide deletion wave has quiesced.
	stagedEnts   []*entry
	stagedGroups []stagedGroup

	// Counters.
	deltasProcessed int64
	rulesFired      int64
	// joinStats tallies probes/hits per joinID for the planner's cost
	// model (stats.go), folded into the node accumulator only at
	// quiescence. condStats does the same for condition pass/fail tallies,
	// keyed by program-wide condition slot (CompiledRule.condBase +
	// planStep.condID).
	joinStats []joinStat
	condStats []condStat

	// fireAtomPos/fireIsEvent describe the delta currently being fired
	// (set by firePlan); batched join probes use them to pick the old/new
	// admission side.
	fireAtomPos int
	fireIsEvent bool

	// Batched-round state; see rounds.go.
	rs roundState
}

// Chunk caps of the evaluation state's arenas (types.Arena grows up to them).
const (
	argArenaChunk = 512
	aggArenaChunk = 128
)

// newShard creates a node's evaluation state, binding the program's join
// steps to its index handles. Everything sized here comes from the compiled
// program; what depends on the data — relation and index maps, aggregate
// groups — is created by its first write.
func newShard(n *Node) *shard {
	prog := n.Prog
	sh := &shard{
		n:             n,
		argArena:      types.NewArena[types.Value](argArenaChunk),
		aggEntryArena: types.NewArena[aggEntry](aggArenaChunk),
		aggGroupArena: types.NewArena[aggGroup](aggArenaChunk),
	}
	// Pre-create relations, the indexes every join plan needs, and the
	// per-join compiled handles. Joins against event atoms keep a nil
	// handle: events never materialize, so such probes match nothing.
	sh.tablesByID = make([]Relation, prog.numTables)
	for _, info := range prog.predList {
		if !info.Event {
			sh.tablesByID[info.tableID] = newRelation(info.Name, n.batched)
		}
	}
	sh.joinIdx = make([]*index, prog.numJoins)
	sh.joinStats = make([]joinStat, prog.numJoins)
	sh.condStats = make([]condStat, prog.numConds)
	sh.aggByRule = make([]map[string]*aggGroup, len(prog.Rules))
	sh.aggBodyRel = make([]*Relation, len(prog.Rules))
	sh.bindPlans()
	for _, r := range prog.Rules {
		if r.agg != nil && !r.atoms[0].event {
			sh.aggBodyRel[r.idx] = sh.table(r.atoms[0].pred)
		}
	}
	sh.envBuf = make([]types.Value, prog.maxVars)
	sh.matchedBuf = make([]types.Tuple, prog.maxAtoms)
	sh.entBuf = make([]*entry, prog.maxAtoms)
	sh.payloadBuf = make([]bdd.Ref, prog.maxAtoms)
	sh.vidBuf = make([]types.ID, prog.maxAtoms)
	sh.groupBuf = make([]types.Value, prog.maxGroup)
	sh.carryBuf = make([]types.Value, 0, prog.maxVars)
	return sh
}

// bindPlans resolves every join step of the node's ACTIVE plan set to its
// index handle, creating any index a plan needs (EnsureIndex backfills
// deterministically over live state). Runs at construction and again after
// every plan swap (Node.replan) — always between rounds, never while a fire
// phase could probe a handle.
func (sh *shard) bindPlans() {
	for _, r := range sh.n.Prog.Rules {
		for _, pl := range sh.n.plans[r.idx] {
			for i := range pl.steps {
				st := &pl.steps[i]
				if st.kind != stepJoin {
					continue
				}
				a := r.atoms[st.atom]
				if !a.event {
					sh.joinIdx[st.joinID] = sh.table(a.pred).ensureIndex(st.indexID, st.indexPos)
				}
			}
		}
	}
}

// lookup returns the relation of pred, or nil when the node has none.
func (sh *shard) lookup(pred string) *Relation {
	if info := sh.n.Prog.Pred(pred); info != nil && info.tableID >= 0 {
		return &sh.tablesByID[info.tableID]
	}
	for _, t := range sh.extraTables {
		if t.name == pred {
			return t
		}
	}
	return nil
}

// table is lookup for writers: a predicate the program never stores gets its
// relation on first use.
func (sh *shard) table(pred string) *Relation {
	t := sh.lookup(pred)
	if t == nil {
		r := newRelation(pred, sh.n.batched)
		t = &r
		sh.extraTables = append(sh.extraTables, t)
	}
	return t
}

//exspan:hotpath
func (sh *shard) enqueue(d localDelta) { sh.queue = append(sh.queue, d) }

// popDelta removes and returns the next pending delta of the drain ring.
// The queue is a head-index ring over one slice: popping advances qhead
// instead of re-slicing, and the slice capacity is reused across bursts
// rather than re-allocated per enqueue wave.
//
//exspan:hotpath
func (sh *shard) popDelta() localDelta {
	// Compact once the consumed prefix dominates so a long-lived burst
	// cannot grow the slice without bound.
	if sh.qhead >= 1024 && 2*sh.qhead >= len(sh.queue) {
		m := copy(sh.queue, sh.queue[sh.qhead:])
		tail := sh.queue[m:]
		for i := range tail {
			tail[i] = localDelta{}
		}
		sh.queue = sh.queue[:m]
		sh.qhead = 0
	}
	d := sh.queue[sh.qhead]
	sh.queue[sh.qhead] = localDelta{} // release tuple/payload references
	sh.qhead++
	if sh.qhead == len(sh.queue) {
		sh.queue = sh.queue[:0]
		sh.qhead = 0
	}
	return d
}

func (sh *shard) pending() bool { return sh.qhead < len(sh.queue) || len(sh.rs.aggIn) > 0 }

// process applies one delta to the node's state and — under the drain —
// fires the triggered rules inline. Under batched rounds (rm true) firing is
// deferred: the delta's net visibility effect is recorded via markTouched
// and evaluated by the fire phase (rounds.go).
//
//exspan:hotpath
func (sh *shard) process(d localDelta, rm bool) {
	n := sh.n
	sh.deltasProcessed++
	info := n.Prog.Pred(d.tuple.Pred)
	// One predicate lookup serves event-ness, triggered occurrences and the
	// relation: the PredInfo carries them all from compile time.
	var occs []occurrence
	if info != nil {
		occs = info.occs
	}
	isEvent := info != nil && info.Event || info == nil && ndlogIsEvent(d.tuple.Pred)
	if isEvent {
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
			// Events have no entry to keep the vertex on; hash and find it
			// once per delta. A delete only looks it up: a VID without a
			// vertex has no row to remove.
			var vid types.ID
			vid, sh.hashBuf = d.tuple.VIDBuf(sh.hashBuf)
			if d.sign == Insert {
				sh.n.Store.AddProv(sh.n.Store.Vertex(vid, d.tuple), d.rid, d.rloc)
			} else if v := sh.n.Store.Lookup(vid); v != nil {
				sh.n.Store.DelProv(v, d.rid, d.rloc)
			}
		}
		// Centralized: base events are reported by their injector; derived
		// events were already reported by the deriving node.
		if n.Mode == ProvCentralized && d.isBase {
			var vid types.ID
			vid, sh.hashBuf = d.tuple.VIDBuf(sh.hashBuf)
			n.sendProvRow(n.ID, vid, types.ZeroID, n.ID, d.sign)
		}
		if rm {
			sh.rs.fires = append(sh.rs.fires, fireItem{tuple: d.tuple, occs: occs, sign: d.sign, isEvent: true})
		} else {
			sh.fireAll(occs, d.tuple, d.sign, nil, d.payload)
		}
		return
	}

	// The provenance meta-relations themselves (rows relayed to a
	// centralized server, or produced by a rewrite-generated program) are
	// stored without further provenance bookkeeping.
	meta := d.tuple.Pred == "prov" || d.tuple.Pred == "ruleExec"

	var rel *Relation
	if info != nil && info.tableID >= 0 {
		rel = &sh.tablesByID[info.tableID]
	} else {
		rel = sh.table(d.tuple.Pred)
	}
	switch d.sign {
	case Insert:
		e := rel.getOrCreate(d.tuple)
		if rm {
			sh.markTouched(rel, e, occs)
		}
		dv := e.findDeriv(d.rid)
		if dv == nil {
			dv = e.addDeriv(d.rid, d.rloc)
		}
		dv.count++
		// The entry caches the canonical VID, so each stored tuple is
		// hashed at most once per lifetime regardless of how many deltas
		// and provenance branches touch it.
		if n.Mode == ProvReference && !meta {
			if e.vert == nil {
				// One find-or-create per entry lifetime: the store drops
				// the vertex with its last prov row, which is when this
				// entry loses its last derivation too.
				var vid types.ID
				vid, sh.hashBuf = e.VIDBuf(sh.hashBuf)
				e.vert = sh.n.Store.Vertex(vid, e.tuple)
			}
			sh.n.Store.AddProv(e.vert, d.rid, d.rloc)
		}
		// Centralized: the deriving node reports derived rows; the owner
		// reports base rows.
		if n.Mode == ProvCentralized && !meta && d.isBase {
			var vid types.ID
			vid, sh.hashBuf = e.VIDBuf(sh.hashBuf)
			n.sendProvRow(n.ID, vid, types.ZeroID, n.ID, Insert)
		}
		payloadChanged := false
		if n.Mode == ProvValue {
			if d.isBase {
				var vid types.ID
				vid, sh.hashBuf = e.VIDBuf(sh.hashBuf)
				dv.payload = n.Mgr.Var(n.Alloc.VarOf(algebra.Base{
					VID: vid, Label: d.tuple.String(), Node: n.ID,
				}))
			} else {
				dv.payload = d.payload
			}
			payloadChanged = sh.recomputePayload(e)
		}
		if !e.visible {
			if e.staged {
				// Retraction phase 1: a suspect absorbs new support
				// silently. Re-showing it here would let the insert wave
				// race the still-running deletion wave around derivation
				// cycles (a hide/show flap that never quiesces); the
				// release re-shows it — with this derivation counted —
				// once the deletion wave is done.
				return
			}
			rel.setVisible(e, true)
			if !rm {
				sh.fireAll(occs, d.tuple, Insert, e, e.payload)
			}
		} else if payloadChanged {
			sh.fireAll(occs, d.tuple, Update, e, e.payload)
		}

	case Delete:
		e := rel.get(d.tuple)
		if e == nil {
			return
		}
		dv := e.findDeriv(d.rid)
		if dv == nil {
			return
		}
		if rm {
			sh.markTouched(rel, e, occs)
		}
		dv.count--
		removed := dv.count <= 0
		if removed {
			e.delDeriv(d.rid)
		}
		if e.vert != nil {
			if _, dropped := sh.n.Store.DelProv(e.vert, d.rid, d.rloc); dropped {
				e.vert = nil
			}
		}
		if n.Mode == ProvCentralized && !meta && d.isBase {
			var vid types.ID
			vid, sh.hashBuf = e.VIDBuf(sh.hashBuf)
			n.sendProvRow(n.ID, vid, types.ZeroID, n.ID, Delete)
		}
		switch {
		case len(e.derivs) == 0:
			if e.visible {
				rel.setVisible(e, false)
				if !rm {
					sh.fireAll(occs, d.tuple, Delete, e, e.payload)
				}
			} else {
				// A suspect lost its last alternate while hidden; record the
				// tombstone transition setVisible never observed.
				rel.noteDead(e)
			}
		case removed && e.visible && info != nil && info.Recursive && !meta:
			// Over-deletion (retraction phase 1): a recursive tuple that
			// lost a derivation is hidden even though alternates remain —
			// the alternates may be phantom cyclic support — and staged for
			// the re-derivation phase, which re-shows it only if support
			// survives the completed deletion wave (see ARCHITECTURE.md
			// "Deletion semantics").
			rel.setVisible(e, false)
			sh.stageEntry(e)
			if !rm {
				sh.fireAll(occs, d.tuple, Delete, e, e.payload)
			}
		case n.Mode == ProvValue && sh.recomputePayload(e):
			if e.visible {
				sh.fireAll(occs, d.tuple, Update, e, e.payload)
			}
		}

	case rederive:
		// Retraction phase 2: re-show an over-deleted tuple whose alternate
		// derivations survived the deletion wave, firing the ordinary
		// insert cascade so consumers re-derive from it.
		e := rel.get(d.tuple)
		if e == nil || e.visible || len(e.derivs) == 0 {
			return
		}
		if rm {
			sh.markTouched(rel, e, occs)
		}
		if n.Mode == ProvValue {
			sh.recomputePayload(e)
		}
		rel.setVisible(e, true)
		if !rm {
			sh.fireAll(occs, d.tuple, Insert, e, e.payload)
		}

	case Update:
		if n.Mode != ProvValue {
			return
		}
		e := rel.get(d.tuple)
		if e == nil {
			return
		}
		dv := e.findDeriv(d.rid)
		if dv == nil {
			return
		}
		dv.payload = d.payload
		// Suspects absorb payload updates silently; a visibility-preserving
		// change only propagates for visible tuples.
		if sh.recomputePayload(e) && e.visible {
			sh.fireAll(occs, d.tuple, Update, e, e.payload)
		}
	}
}

// stageEntry registers an over-deleted entry with surviving alternate
// derivations for the re-derivation phase.
func (sh *shard) stageEntry(e *entry) {
	if e.staged {
		return
	}
	e.staged = true
	sh.stagedEnts = append(sh.stagedEnts, e)
}

// stratumOf returns the release stratum of a predicate (0 for predicates
// the program never mentions; those can only be staged via relayed meta
// rows, which are never recursive in practice).
func (sh *shard) stratumOf(pred string) int {
	if info := sh.n.Prog.Pred(pred); info != nil {
		return info.Stratum
	}
	return 0
}

// minStagedStratum returns the lowest occupied release stratum, or -1 when
// nothing is staged.
func (sh *shard) minStagedStratum() int {
	min := -1
	for _, e := range sh.stagedEnts {
		if s := sh.stratumOf(e.tuple.Pred); min < 0 || s < min {
			min = s
		}
	}
	for i := range sh.stagedGroups {
		if s := sh.stagedGroups[i].rule.headStratum; min < 0 || s < min {
			min = s
		}
	}
	return min
}

// releaseStratum moves the given stratum's staged re-derivations into
// actionable work: suspects whose alternate derivations survived the
// deletion wave are enqueued as rederive deltas, and staged aggregate
// groups re-refresh, emitting their deferred winner. Items in other strata
// stay staged. It reports whether any work was produced (the driver then
// runs the node to quiescence again). Staging is validated here, not at
// staging time — a suspect re-shown by a genuine insert, or a group whose
// output was already rebuilt, releases as a no-op — so release order across
// nodes cannot affect the fixpoint (the stratified wave order in
// Node.ReleaseStaged is a round-trip optimization, not a correctness
// requirement; engine/dred_test.go proves order independence).
//
// limit, when non-nil, caps how many staged items this call may release —
// the lever dred_test.go's randomized release uses as the reference side of
// the confluence fence; nil (every driver) releases the whole stratum as one
// batch.
func (sh *shard) releaseStratum(stratum int, limit *int) bool {
	any := false
	ents := sh.stagedEnts
	kept := ents[:0]
	for _, e := range ents {
		if limit != nil && *limit == 0 || sh.stratumOf(e.tuple.Pred) != stratum {
			kept = append(kept, e)
			continue
		}
		if limit != nil {
			*limit--
		}
		e.staged = false
		if !e.visible && len(e.derivs) > 0 {
			sh.enqueue(localDelta{tuple: e.tuple, sign: rederive})
			any = true
		}
	}
	for i := len(kept); i < len(ents); i++ {
		ents[i] = nil
	}
	sh.stagedEnts = kept

	groups := sh.stagedGroups
	keptG := groups[:0]
	for i := range groups {
		sg := groups[i]
		if limit != nil && *limit == 0 || sg.rule.headStratum != stratum {
			keptG = append(keptG, sg)
			continue
		}
		if limit != nil {
			*limit--
		}
		sg.g.staged = false
		for _, em := range sg.g.refresh(sh, sg.rule, sg.groupVals, false) {
			out := em.tuple
			out.Pred = sg.rule.HeadPred
			sh.emitAggChange(sg.rule, out, em, types.Tuple{})
			any = true
		}
	}
	for i := len(keptG); i < len(groups); i++ {
		groups[i] = stagedGroup{}
	}
	sh.stagedGroups = keptG
	return any
}

func ndlogIsEvent(pred string) bool {
	return len(pred) >= 2 && pred[0] == 'e' && pred[1] >= 'A' && pred[1] <= 'Z'
}

// recomputePayload refreshes the entry's combined (OR) payload; it reports
// whether the payload changed.
func (sh *shard) recomputePayload(e *entry) bool {
	comb := bdd.False
	for i := range e.derivs {
		comb = sh.n.Mgr.Or(comb, e.derivs[i].payload)
	}
	if comb == e.payload {
		return false
	}
	e.payload = comb
	return true
}

// fireAll runs every rule occurrence triggered by a delta of this
// predicate. deltaEntry may be nil (events); payload is the tuple's current
// provenance payload in value mode.
//
//exspan:hotpath
func (sh *shard) fireAll(occs []occurrence, t types.Tuple, sign int8, deltaEntry *entry, payload bdd.Ref) {
	for _, occ := range occs {
		if occ.rule.agg != nil {
			sh.fireAgg(occ.rule, t, sign, payload)
		} else {
			sh.firePlan(occ.rule, occ.pos, t, sign, deltaEntry, payload)
		}
	}
}
