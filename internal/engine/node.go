package engine

import (
	"fmt"

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
// node. It owns exactly one evaluation state (shard.go) and runs it with one
// of two executors, chosen by the driver that built it: a driver handing the
// node one message per ingest (NewNode: simulator, deployment, synchronous
// test transports) gets the classic pipelined inline drain; the Scheduler,
// which hands it a whole round of messages at a time, gets batched rounds
// (rounds.go). Both reach the same fixpoint state.
type Node struct {
	ID        types.NodeID
	Prog      *Program
	Mode      ProvMode
	Transport Transport
	Central   types.NodeID // ProvCentralized: the server node

	// Msgs, when set, is the free list outgoing messages are drawn from;
	// the transport releases them after delivery (see Transport). Nil keeps
	// plain allocation (tests with transports that retain messages).
	Msgs *MessagePool

	// Store holds this node's partition of the provenance graph (reference
	// and centralized modes).
	Store *provenance.Store

	// Mgr/Alloc support value-based provenance payloads. Alloc must be
	// shared across the cluster so BDD variable numbering is globally
	// consistent.
	Mgr   *bdd.Manager
	Alloc *algebra.VarAlloc

	// Err records the first internal evaluation error (malformed program
	// data); the node stops deriving after an error.
	Err error

	// NoReplan pins the node to the compile-time default plans — the
	// baseline side of planner-equivalence tests and benchmarks.
	NoReplan bool

	// plans is the node's ACTIVE plan set, indexed [rule.idx][bodyPos].
	// It starts as the program's compile-time default and is the only
	// thing Replan swaps; the executor (exec.go) reads plans exclusively
	// through it. Swaps happen only at driver quiescence points, when no
	// fire phase is running.
	plans [][]*plan
	// joinKeys maps each joinID to the (predicate, index) it currently
	// probes, for folding fan-out tallies into plan-independent
	// accumulators. Built by the first fold (foldJoinStats), rebuilt on
	// every plan swap.
	joinKeys []statKey
	// fanAcc accumulates measured join fan-out across plan generations;
	// created by the first fold.
	fanAcc map[statKey]joinStat
	// condAcc accumulates measured condition pass/fail tallies, indexed by
	// program-wide condition slot (stats.go condStat).
	condAcc []condStat
	// lastReplanDeltas gates re-planning on drift: a re-plan is attempted
	// only after replanMinDeltas further deltas since the previous one.
	lastReplanDeltas int64
	// statHook, when set (tests), perturbs the cost model's fan-out
	// estimates — the lever planner-equivalence fences use to force
	// alternative join orders.
	statHook func(pred, idx string, est float64) float64

	shard *shard

	// batched selects the executor: batched rounds (rounds.go) instead of
	// the inline drain. Fixed at construction by the driver (newNode).
	batched bool
	// running guards the executor against re-entry: a synchronous transport
	// can deliver a message back to this node mid-run; the delta is queued
	// and the outer loop picks it up.
	running bool
	// curRound is the batched executor's monotone round counter (rounds.go).
	curRound uint32
}

// NewNode creates an engine node for the given compiled program, evaluated by
// the classic pipelined PSN drain — the executor of every driver that
// delivers one message per ingest.
func NewNode(id types.NodeID, prog *Program, mode ProvMode, tr Transport, alloc *algebra.VarAlloc) *Node {
	return newNode(id, prog, mode, tr, alloc, false)
}

// Kept only because bench/ calls them and no PR outside the benchmark's own
// may edit bench/: a node has one evaluation state, so the count is always 1
// and NewScheduler ignores its fourth parameter. Nothing else in the tree
// uses these; the next benchmark PR deletes them.
const AutoShards = -1

func EffectiveShards(int) int  { return 1 }
func (n *Node) NumShards() int { return 1 }

// newNode creates an engine node. batched selects the executor and is a fact
// about the constructing driver, not an option: the Scheduler ingests a whole
// round of messages at a time and batches, everything else drains. Value-based
// and centralized provenance fire payload Updates and relay meta-rows inline
// with each delta, so those modes always drain.
func newNode(id types.NodeID, prog *Program, mode ProvMode, tr Transport, alloc *algebra.VarAlloc, batched bool) *Node {
	n := &Node{
		ID:        id,
		Prog:      prog,
		Mode:      mode,
		Transport: tr,
		Store:     provenance.NewStore(id),
		Alloc:     alloc,
		batched:   batched && mode != ProvValue && mode != ProvCentralized,
	}
	if mode == ProvValue {
		n.Mgr = bdd.New()
		if n.Alloc == nil {
			n.Alloc = algebra.NewVarAlloc()
		}
	}
	// The active plan set starts as the compile-time default; the shard binds
	// its index handles against it (bindPlans), so it must exist first.
	n.plans = make([][]*plan, len(prog.Rules))
	for i, cr := range prog.Rules {
		n.plans[i] = append([]*plan(nil), cr.plans...)
	}
	n.condAcc = make([]condStat, prog.numConds)
	n.shard = newShard(n)
	return n
}

// Table exposes the node's relation of pred for inspection (nil when absent).
func (n *Node) Table(pred string) *Relation { return n.shard.lookup(pred) }

// Tuples returns the visible tuples of a predicate, sorted canonically.
func (n *Node) Tuples(pred string) []types.Tuple {
	if rel := n.shard.lookup(pred); rel != nil {
		return rel.Tuples()
	}
	return nil
}

// TupleCount reports the number of visible tuples of a predicate in O(1).
func (n *Node) TupleCount(pred string) int {
	if rel := n.shard.lookup(pred); rel != nil {
		return rel.Len()
	}
	return 0
}

// DeltasProcessed reports the number of deltas the node has applied.
func (n *Node) DeltasProcessed() int64 { return n.shard.deltasProcessed }

// AggGroupCount reports the number of aggregate groups still holding state
// (a non-empty input multiset, an emitted output, or a live COUNT total) —
// the aggregate-side leak check of full-retraction tests: after every base
// tuple is retracted, it must be zero.
func (n *Node) AggGroupCount() int {
	c := 0
	for _, groups := range n.shard.aggByRule {
		for _, g := range groups {
			if len(g.entries) > 0 || g.hasOut || g.total != 0 {
				c++
			}
		}
	}
	return c
}

// RulesFired reports the number of rule firings the node has executed.
func (n *Node) RulesFired() int64 { return n.shard.rulesFired }

// PayloadOf returns the value-mode provenance payload of a visible tuple —
// the "immediately available" provenance that lets a node accept or reject
// state without a distributed query. It reports false when the node is not
// in ProvValue mode or the tuple is not visible; interpret the Ref against
// n.Mgr and the cluster's shared VarAlloc.
func (n *Node) PayloadOf(t types.Tuple) (bdd.Ref, bool) {
	if n.Mode != ProvValue {
		return bdd.False, false
	}
	rel := n.shard.lookup(t.Pred)
	if rel == nil {
		return bdd.False, false
	}
	e := rel.get(t)
	if e == nil || !e.visible {
		return bdd.False, false
	}
	return e.payload, true
}

// InsertBase injects a base (EDB) tuple at this node and runs to local
// quiescence.
func (n *Node) InsertBase(t types.Tuple) {
	n.ingest(localDelta{tuple: t, sign: Insert, rloc: n.ID, isBase: true})
}

// DeleteBase retracts a base tuple.
func (n *Node) DeleteBase(t types.Tuple) {
	n.ingest(localDelta{tuple: t, sign: Delete, rloc: n.ID, isBase: true})
}

// InjectEvent fires an event tuple at this node (e.g. a PACKETFORWARD
// ePacket).
func (n *Node) InjectEvent(t types.Tuple) {
	d := localDelta{tuple: t, sign: Insert, rloc: n.ID, isBase: true}
	if n.Mode == ProvValue {
		d.payload = bdd.True
	}
	n.ingest(d)
}

// HandleMessage applies a tuple delta received from another node.
func (n *Node) HandleMessage(from types.NodeID, m *Message) {
	d, ok := n.messageDelta(from, m)
	if !ok {
		return
	}
	n.ingest(d)
}

// depositMessage queues a received delta without running the node — the
// Scheduler drives evaluation itself.
func (n *Node) depositMessage(from types.NodeID, m *Message) {
	d, ok := n.messageDelta(from, m)
	if !ok {
		return
	}
	n.shard.enqueue(d)
}

func (n *Node) messageDelta(from types.NodeID, m *Message) (localDelta, bool) {
	d := localDelta{tuple: m.Tuple, sign: m.Delta}
	if m.HasRef {
		d.rid, d.rloc = m.RID, m.RLoc
	}
	if n.Mode == ProvValue {
		if m.Payload != nil {
			ref, _, err := n.Mgr.Decode(m.Payload)
			if err != nil {
				n.fail(fmt.Errorf("node %s: bad payload from %s: %w", n.ID, from, err))
				return localDelta{}, false
			}
			d.payload = ref
		} else {
			d.payload = bdd.True
		}
	}
	return d, true
}

// ingest deposits one delta and runs the node to local quiescence.
func (n *Node) ingest(d localDelta) {
	n.shard.enqueue(d)
	n.Flush()
}

func (n *Node) fail(err error) {
	if n.Err == nil {
		n.Err = err
	}
}

// ReleaseStaged begins the retraction protocol's re-derivation phase on
// this node: suspects over-deleted with surviving alternate derivations are
// enqueued for re-insertion and staged aggregate groups emit their deferred
// winner. It reports whether any work was produced (never, once the node
// has failed); the caller then runs the node (Flush) — and the whole cluster
// — to quiescence again, repeating until no node stages further work.
//
// Release proceeds in stratified waves: each call releases the lowest
// occupied SCC stratum (PredInfo.Stratum) as one batch of rederive deltas,
// so a suspect's supports re-derive before the suspects that consume them
// validate, and the driver pays one release/flush round trip per stratum
// instead of one per suspect. Strata that release only
// stale stagings (no-ops under release-time validation) are consumed within
// the same call, so a true return always carries actionable work and a
// false return means nothing is staged. The wave order is purely a
// round-trip optimization — release order cannot affect the fixpoint
// (engine/dred_test.go proves order independence).
//
// Correctness requires the cluster-wide deletion wave to have quiesced
// first: releasing while delete messages are still in flight re-creates the
// race between deletion and re-derivation that diverges on cyclic
// derivations (count-to-infinity). Every driver therefore reaches this only
// through ReleasePass, at its global quiescence point — the simulator's
// empty event queue, the scheduler's drained rounds, the deployment's
// retired work accounting, or Settle under a synchronous transport.
func (n *Node) ReleaseStaged() bool {
	if n.Err != nil {
		return false
	}
	sh := n.shard
	for {
		stratum := sh.minStagedStratum()
		if stratum < 0 {
			return false
		}
		if sh.releaseStratum(stratum, nil) {
			return true
		}
	}
}

// Flush runs any pending deposited work to local quiescence under the
// node's executor (inline drain or batched rounds).
func (n *Node) Flush() {
	if n.Err != nil {
		return
	}
	if n.batched {
		n.runRounds()
	} else {
		n.drain()
	}
}

// ReleasePass is the retraction protocol's phase 2, stated once for every
// driver. The caller has established global quiescence (see ReleaseStaged
// for why that is required). each must apply the function it is given to
// every node of the cluster, on the goroutine that owns that node — it may
// run the calls concurrently — and report whether any call returned true.
// The pass releases every node's staged work and reports whether any node
// had some; the driver then runs the cluster to quiescence again and
// repeats. Only a pass that released nothing is the true fixpoint, the one
// point where plan swaps are legal, so only then is every node re-planned.
//
// With flush set, a node that released runs to local quiescence before its
// call returns (Settle, the simulator's OnIdle hook, deploy.WaitFixpoint).
// The Scheduler passes false: released work stays queued for its next round,
// where it runs on the worker pool like any other delta.
//
// The functions handed to each capture nothing, so a pass allocates nothing
// (the scheduler's delivery alloc fence runs through here).
func ReleasePass(each func(func(*Node) bool) bool, flush bool) bool {
	release := (*Node).ReleaseStaged
	if flush {
		release = releaseAndFlush
	}
	if each(release) {
		return true
	}
	each(func(n *Node) bool { n.Replan(); return false })
	return false
}

func releaseAndFlush(n *Node) bool {
	if !n.ReleaseStaged() {
		return false
	}
	n.Flush()
	return true
}

// Settle drives the retraction protocol's release loop across a set of
// nodes connected by a synchronous transport (one whose Send delivers — and
// cascades — before returning, like the test harnesses): at entry the
// deletion wave has globally quiesced, so staged work is released and run,
// repeatedly, until no node stages anything further.
func Settle(nodes ...*Node) {
	each := func(fn func(*Node) bool) bool { return anyNode(nodes, fn) }
	for ReleasePass(each, true) {
	}
}

// anyNode applies fn to every node, in order, and reports whether any call
// returned true — the each of ReleasePass for a driver that owns all its
// nodes on one goroutine.
func anyNode(nodes []*Node, fn func(*Node) bool) bool {
	any := false
	for _, n := range nodes {
		if fn(n) {
			any = true
		}
	}
	return any
}

// drain processes queued deltas FIFO until quiescent — the pipelined PSN
// executor: each delta is applied and its rules fired inline.
func (n *Node) drain() {
	if n.running {
		return
	}
	n.running = true
	defer func() { n.running = false }()
	sh := n.shard
	for sh.qhead < len(sh.queue) && n.Err == nil {
		sh.process(sh.popDelta(), false)
	}
}

// Centralized-mode helpers: provenance rows travel to the server as plain
// prov/ruleExec tuples, whose byte sizes are charged like any message.

func (n *Node) sendProvRow(loc types.NodeID, vid, rid types.ID, rloc types.NodeID, sign int8) {
	row := types.NewTuple("prov", types.Node(loc), types.IDVal(vid), types.IDVal(rid), types.Node(rloc))
	if n.Central == n.ID {
		n.shard.enqueue(localDelta{tuple: row, sign: sign, rloc: n.ID})
		return
	}
	m := n.Msgs.Get()
	m.Tuple, m.Delta = row, sign
	n.Transport.Send(n.ID, n.Central, m)
}

func (n *Node) sendRuleExecRow(rid types.ID, rule string, inputs []types.ID, sign int8) {
	vids := make([]types.Value, len(inputs))
	for i, id := range inputs {
		vids[i] = types.IDVal(id)
	}
	row := types.NewTuple("ruleExec", types.Node(n.ID), types.IDVal(rid), types.Str(rule), types.List(vids...))
	if n.Central == n.ID {
		n.shard.enqueue(localDelta{tuple: row, sign: sign, rloc: n.ID})
		return
	}
	m := n.Msgs.Get()
	m.Tuple, m.Delta = row, sign
	n.Transport.Send(n.ID, n.Central, m)
}
