package engine

import (
	"fmt"
	"io"

	"repro/internal/algebra"
	"repro/internal/bdd"
	"repro/internal/provenance"
	"repro/internal/types"
)

// ProvMode selects how provenance is maintained and distributed (§3).
type ProvMode uint8

// Provenance distribution modes.
const (
	// ProvNone disables provenance maintenance (the evaluation's
	// "No Prov." baseline).
	ProvNone ProvMode = iota
	// ProvReference maintains reference-based distributed provenance:
	// ruleExec rows at the deriving node, prov rows at the tuple's node,
	// and only the (RID, RLoc) pointer shipped with each tuple.
	ProvReference
	// ProvValue ships the full provenance of every tuple, encoded as a
	// BDD, with the tuple itself (the "Value-based Prov. (BDD)" line).
	ProvValue
	// ProvCentralized relays every prov and ruleExec row to a central
	// server node as additional messages.
	ProvCentralized
)

func (m ProvMode) String() string {
	switch m {
	case ProvNone:
		return "none"
	case ProvReference:
		return "reference"
	case ProvValue:
		return "value"
	case ProvCentralized:
		return "centralized"
	}
	return "?"
}

// Node is one ExSPAN engine instance: the PSN evaluator plus provenance
// bookkeeping for a single network node — the paper's one dataflow per
// node. The Node is its whole evaluation state — relations, join indexes,
// aggregate groups, staged retractions and the delta ring — and runs it in
// rounds (rounds.go). What a round reads and writes but nothing outlives —
// the fire list, the aggregate updates between rounds, the firing and
// refresh buffers — is a scratch the node borrows from its Program while it
// runs and returns when it is locally quiescent (scratch.go), so a quiescent
// node holds none. Drivers differ only in how much one ingest holds: one
// message (simulator, deployment, synchronous test transports) or a whole
// scheduler round of them (Scheduler). Both reach the same fixpoint state.
type Node struct {
	ID        types.NodeID
	Prog      *Program
	Mode      ProvMode
	Transport Transport

	// Msgs, when set, is the free list outgoing messages are drawn from;
	// the transport releases them after delivery (see Transport). Nil keeps
	// plain allocation (tests with transports that retain messages).
	Msgs *MessagePool

	// Store holds this node's partition of the provenance graph (reference
	// and centralized modes) and its numbering of its own base tuples' BDD
	// variables (value mode, BDD queries).
	Store *provenance.Store

	// Ring makes every value-mode payload (nil in other modes): the BDD ring
	// over the node's own manager, naming a base tuple's variable in Store,
	// so the node numbers its own base tuples and shares nothing.
	Ring *algebra.Ring[algebra.Payload]

	// Err records the first internal evaluation error (malformed program
	// data); the node stops deriving after an error.
	Err error

	// Counters. joinStats, nil unless CountJoins turned counting on, tallies
	// probes and returned candidates per compiled join step (indexed by
	// joinID): the measured work ExplainPlans prints.
	deltasProcessed int64
	rulesFired      int64
	joinStats       []joinStat

	// The delta ring (apply.go): queue[qhead:] is pending work. Deposits
	// wait here between runs, so the ring stays with the node.
	queue []localDelta
	qhead int
	// sc is the round scratch, held only while the node runs (borrow); a
	// held scratch also guards the executor against re-entry: a synchronous
	// transport can deliver a message back to this node mid-run, and the
	// delta is queued for the outer loop to pick up.
	sc *scratch

	// pool holds the entries of every relation the node holds, their index
	// buckets, the aggregate groups and each relation's counts, and its key
	// buffer is the node's one byte scratch. The relations are the
	// program's stored predicates, less prov and ruleExec on a node that
	// holds neither (Program.tablesFor): the program's predicate table is
	// the only name→relation map.
	pool entryPool

	// argArena backs emitted head arguments (and the group values
	// aggregates retain): emitted tuples escape into relations and
	// messages, so their args cannot live in reusable scratch.
	argArena types.Arena[types.Value]

	// Arenas for aggregate state, one group per (rule, group-by values):
	// group structs and each group's first row, chunked to Program.groupBound.
	aggRowArena   types.Arena[*entry]
	aggGroupArena types.Arena[aggGroup]

	// Retraction-protocol staging (release.go; see ARCHITECTURE.md
	// "Deletion semantics"): suspects over-deleted with surviving alternate
	// derivations, and aggregate groups whose winner promotion was
	// deferred. Both lists are drained by ReleaseStaged once the driver
	// detects that the cluster-wide deletion wave has quiesced.
	stagedEnts   []*entry
	stagedGroups []*aggGroup

	// curRound is the executor's monotone round counter (rounds.go).
	curRound uint32
}

// Chunk caps of the evaluation state's arenas (types.Arena grows up to them).
// A head-argument carve that a later delta supersedes stays dead in its
// chunk until every carve beside it is gone, so a smaller argument chunk
// pins less: of the caps measured (512 down to 32), 64 values retained the
// least heap on the benchmark workloads, within noise of 32 (PERFORMANCE.md
// "What a converged CHORD node holds").
const (
	argArenaChunk = 64
	aggArenaChunk = 128
)

// NewNode creates an engine node for the given compiled program.
//
// Everything sized here comes from the compiled program; what depends on the
// data — index buckets, aggregate groups, the tables' slots — is created by
// its first write.
func NewNode(id types.NodeID, prog *Program, mode ProvMode, tr Transport) *Node {
	aggChunk := aggArenaChunk
	if prog.groupBound > 0 {
		aggChunk = min(prog.groupBound, aggArenaChunk)
	}
	n := &Node{
		ID:            id,
		Prog:          prog,
		Mode:          mode,
		Transport:     tr,
		Store:         provenance.NewStore(id, &prog.rules),
		pool:          newEntryPool(prog.tablesFor(mode)),
		argArena:      types.NewArena[types.Value](argArenaChunk),
		aggRowArena:   types.NewArena[*entry](aggChunk),
		aggGroupArena: types.NewArena[aggGroup](aggChunk),
	}
	if mode == ProvValue {
		r := algebra.BDD(bdd.New(), func(b algebra.Base) bdd.Var { return n.Store.BaseVar(b.VID) })
		n.Ring = &r
	}
	return n
}

// CountJoins turns on the node's join tallies, the probes and hits of every
// compiled join step that ExplainPlans prints; call it before the node
// evaluates anything. Counting is off by default: only -explain and tests
// read the tallies, and a node that does not count holds no tally slice.
func (n *Node) CountJoins() {
	if n.joinStats == nil {
		n.joinStats = make([]joinStat, n.Prog.numJoins)
	}
}

// Kept only because bench/ calls them and no PR outside the benchmark's own
// may edit bench/: a node has one evaluation state, so the count is always 1
// and NewScheduler ignores its fourth parameter. Nothing else in the tree
// uses these; the next benchmark PR deletes them.
const AutoShards = -1

func EffectiveShards(int) int  { return 1 }
func (n *Node) NumShards() int { return 1 }

// lookup returns the stored predicate pred, or nil when the node holds no
// relation of it.
func (n *Node) lookup(pred string) *PredInfo {
	if info := n.Prog.Pred(pred); info != nil && !info.Event && n.holds(info) {
		return info
	}
	return nil
}

// holds reports whether tuples of the predicate may enter this node: every
// event and stored predicate of the program, except prov and ruleExec on a
// node that holds no relation for them.
func (n *Node) holds(info *PredInfo) bool { return info.tableID < len(n.pool.counts) }

// admit is the node's one admission check, run at both ingress points
// (baseDelta, messageDelta): a tuple enters only if its predicate is one the
// node holds and its arity is the program's. It returns the predicate, or nil
// to drop the tuple. The compiled joins, index keys and head expressions
// address arguments by the program's positions, and a corrupt or hostile
// tuple must not reach them — nor make the node a relation its program never
// declared.
func (n *Node) admit(t types.Tuple) *PredInfo {
	if info := n.Prog.Pred(t.Pred); info != nil && n.holds(info) && len(t.Args) == info.Arity {
		return info
	}
	return nil
}

// Tuples returns the visible tuples of a predicate, sorted canonically.
func (n *Node) Tuples(pred string) []types.Tuple {
	if info := n.lookup(pred); info != nil {
		return n.pool.Tuples(info)
	}
	return nil
}

// TupleCount reports the number of visible tuples of a predicate in O(1).
func (n *Node) TupleCount(pred string) int {
	if info := n.lookup(pred); info != nil {
		return n.pool.Len(info)
	}
	return 0
}

// DeltasProcessed reports the number of deltas the node has applied.
func (n *Node) DeltasProcessed() int64 { return n.deltasProcessed }

// AggGroupCount reports the number of aggregate groups still holding state
// (a non-empty input multiset, an emitted output, or a live COUNT total) —
// the aggregate-side leak check of full-retraction tests: after every base
// tuple is retracted, it must be zero.
func (n *Node) AggGroupCount() int {
	c := 0
	for g := range n.pool.tabs.groups.All {
		if len(g.rows) > 0 || g.hasOut {
			c++
		}
	}
	return c
}

// RulesFired reports the number of rule firings the node has executed.
func (n *Node) RulesFired() int64 { return n.rulesFired }

// joinStat tallies one compiled join step's probes and the candidates they
// returned: two slice-indexed bumps per probe.
type joinStat struct {
	probes int64
	hits   int64
}

// ExplainPlans writes every rule's delta plans — join order, probe indexes,
// pushed assignments and conditions — with the probes and hits each join
// step has measured on this node so far (zero unless CountJoins turned
// counting on). Rules print in program order and steps in execution order;
// the text is a function of the node's history, so equal runs print equal
// text. A pipeline is [planned] when its rule's join order was a choice
// (three or more body atoms), [default] otherwise.
func (n *Node) ExplainPlans(w io.Writer) {
	for _, cr := range n.Prog.Rules {
		fmt.Fprintf(w, "rule %s: %s\n", cr.Label, cr.source.String())
		if cr.agg != nil {
			fmt.Fprintf(w, "  aggregate over %s (single-atom; not planned)\n", cr.atoms[0].pred)
			continue
		}
		tag := "[default]"
		if cr.planable() {
			tag = "[planned]"
		}
		for pos, pl := range cr.plans {
			fmt.Fprintf(w, "  delta %s (pos %d): %s\n", cr.atoms[pos].pred, pos, tag)
			for _, st := range pl.steps {
				switch st.kind {
				case stepJoin:
					var js joinStat
					if n.joinStats != nil {
						js = n.joinStats[st.joinID]
					}
					fmt.Fprintf(w, "    join %s idx[%s] probes=%d hits=%d\n",
						cr.atoms[st.atom].pred, st.indexID, js.probes, js.hits)
				case stepCond:
					fmt.Fprintf(w, "    cond %s\n", st.srcTxt)
				case stepAssign:
					fmt.Fprintf(w, "    assign %s\n", st.srcTxt)
				}
			}
		}
	}
}

// PayloadOf returns the value-mode provenance payload of a visible tuple —
// the "immediately available" provenance that lets a node accept or reject
// state without a distributed query. It reports false when the node is not
// in ProvValue mode or the tuple is not visible. The handle belongs to
// n.Ring: two handles of one ring are equal exactly when they denote the same
// boolean function.
func (n *Node) PayloadOf(t types.Tuple) (p algebra.Payload, ok bool) {
	if n.Mode != ProvValue {
		return
	}
	info := n.lookup(t.Pred)
	if info == nil {
		return
	}
	if n.borrow() { // the lookup hashes in the scratch's key buffer
		defer n.giveBack()
	}
	e := n.pool.get(info, t)
	if e == nil || !e.visible {
		return
	}
	return e.payload, true
}

// InsertBase injects a base (EDB) tuple at this node and runs to local
// quiescence.
func (n *Node) InsertBase(t types.Tuple) { n.ingest(n.baseDelta(t, Insert)) }

// DeleteBase retracts a base tuple.
func (n *Node) DeleteBase(t types.Tuple) { n.ingest(n.baseDelta(t, Delete)) }

// InjectEvent fires an event tuple at this node (e.g. a PACKETFORWARD
// ePacket).
func (n *Node) InjectEvent(t types.Tuple) { n.ingest(n.baseDelta(t, Insert)) }

// baseDelta builds the delta of a base tuple injected at this node — the one
// local ingress, behind Node's and Scheduler's InsertBase, DeleteBase and
// InjectEvent. A tuple the node does not admit is dropped (ok false). In
// value mode an injected event's payload is the ring's One: it has no
// derivation to carry.
func (n *Node) baseDelta(t types.Tuple, sign int8) (d localDelta, ok bool) {
	info := n.admit(t)
	if info == nil {
		return localDelta{}, false
	}
	d = localDelta{tuple: t, sign: sign, rloc: n.ID, isBase: true}
	if n.Mode == ProvValue && info.Event {
		d.payload = n.Ring.One()
	}
	return d, true
}

// HandleMessage applies a tuple delta received from another node.
func (n *Node) HandleMessage(from types.NodeID, m *Message) { n.ingest(n.messageDelta(m)) }

// depositMessage queues a received delta without running the node — the
// Scheduler drives evaluation itself.
func (n *Node) depositMessage(m *Message) { n.deposit(n.messageDelta(m)) }

// messageDelta turns a received message into a delta — the node's one remote
// ingress. A tuple the node does not admit is dropped (ok false), and so is
// a value-mode payload the ring does not decode as a whole.
func (n *Node) messageDelta(m *Message) (d localDelta, ok bool) {
	if n.admit(m.Tuple) == nil {
		return localDelta{}, false
	}
	d = localDelta{tuple: m.Tuple, sign: m.Delta}
	if m.HasRef {
		d.rid, d.rloc = m.RID, m.RLoc
	}
	if n.Mode == ProvValue {
		d.payload = n.Ring.One()
		if m.Payload != nil {
			d.payload, ok = n.Ring.Decode(m.Payload)
			return d, ok
		}
	}
	return d, true
}

// deposit queues an admitted delta (ok, from baseDelta or messageDelta)
// without running the node.
func (n *Node) deposit(d localDelta, ok bool) {
	if ok {
		n.enqueue(d)
	}
}

// ingest deposits an admitted delta and runs the node to local quiescence.
func (n *Node) ingest(d localDelta, ok bool) {
	if ok {
		n.enqueue(d)
		n.Flush()
	}
}

func (n *Node) fail(err error) {
	if n.Err == nil {
		n.Err = err
	}
}

// Flush runs any pending deposited work to local quiescence.
func (n *Node) Flush() {
	if n.Err == nil {
		n.runRounds()
	}
}

// CentralServer is the node that receives every prov and ruleExec row in
// centralized mode (§3).
const CentralServer types.NodeID = 0

// Centralized-mode helpers: provenance rows travel to CentralServer as
// tuples of the declared prov/ruleExec relations, routed like a derived head
// (queued locally when this node is the server) and charged like any
// message, with no payload: noPayload fills route's payload argument, which
// it reads only in value mode.
var noPayload algebra.Payload

func (n *Node) sendProvRow(loc types.NodeID, vid, rid types.ID, rloc types.NodeID, sign int8) {
	row := types.NewTuple("prov", types.Node(loc), types.IDVal(vid), types.IDVal(rid), types.Node(rloc))
	n.route(row, CentralServer, sign, types.ZeroID, noPayload)
}

func (n *Node) sendRuleExecRow(rid types.ID, rule string, inputs []types.ID, sign int8) {
	vids := make([]types.Value, len(inputs))
	for i, id := range inputs {
		vids[i] = types.IDVal(id)
	}
	row := types.NewTuple("ruleExec", types.Node(n.ID), types.IDVal(rid), types.Str(rule), types.List(vids...))
	n.route(row, CentralServer, sign, types.ZeroID, noPayload)
}
