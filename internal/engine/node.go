package engine

import (
	"fmt"
	"runtime"

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
// bookkeeping for a single network node. Evaluation state lives in one or
// more worker shards (shard.go); with a single shard the node runs the
// classic inline PSN drain, with several it runs batched parallel rounds
// (rounds.go) whose fixpoint state matches the single-shard run exactly.
type Node struct {
	ID        types.NodeID
	Prog      *Program
	Mode      ProvMode
	Transport Transport
	Central   types.NodeID // ProvCentralized: the server node

	// Msgs, when set, is the free list outgoing messages are drawn from;
	// the transport releases them after delivery (see Transport). Nil keeps
	// plain allocation (tests with transports that retain messages). The
	// pool is single-threaded, so sharded fire phases bypass it.
	Msgs *MessagePool

	// Store holds this node's partitions of the provenance graph
	// (reference and centralized modes) behind the single-writer facade.
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
	// probes, for folding shard fan-out tallies into plan-independent
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

	shards   []*shard
	draining bool
	// releasing is true while ReleaseStaged re-emits deferred work; on a
	// sharded node it switches route() from round buffering (no round is
	// active between driver-visible quiescence points) to direct owner-
	// shard enqueueing.
	releasing bool

	// Round-runtime state (rounds.go). curRound is the node's monotone
	// round counter; inRounds is true while a batched round executes
	// (either self-driven or under a Scheduler).
	curRound uint32
	inRounds bool
}

// NewNode creates a single-shard engine node for the given compiled program
// — the classic serial PSN evaluator.
func NewNode(id types.NodeID, prog *Program, mode ProvMode, tr Transport, alloc *algebra.VarAlloc) *Node {
	return NewNodeSharded(id, prog, mode, tr, alloc, 1)
}

// AutoShards is a sentinel shard count meaning "size for this host":
// NewNodeSharded (and the drivers that forward a Shards config to it)
// resolve it through EffectiveShards at construction time.
const AutoShards = -1

// EffectiveShards resolves a requested worker-shard count to the count
// adaptive selection runs: capped at GOMAXPROCS — partitions beyond the
// host's parallelism only pay merge-barrier tax — with AutoShards (or any
// non-positive request) meaning "as many as the host runs in parallel".
// NewNodeSharded applies this only to the AutoShards sentinel: explicit
// counts are honored as configured, so equivalence fences can pin shards=4
// regardless of host.
func EffectiveShards(requested int) int {
	max := runtime.GOMAXPROCS(0)
	if requested <= 0 || requested > max {
		requested = max
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

// NewNodeSharded creates an engine node whose state is hash-partitioned
// across the given number of worker shards. Value-based and centralized
// provenance share mutable cluster-wide structures (the BDD manager, the
// relayed meta-rows), so those modes clamp to one shard.
func NewNodeSharded(id types.NodeID, prog *Program, mode ProvMode, tr Transport, alloc *algebra.VarAlloc, shards int) *Node {
	if shards == AutoShards {
		shards = EffectiveShards(shards)
	}
	if shards < 1 || mode == ProvValue || mode == ProvCentralized {
		shards = 1
	}
	n := &Node{
		ID:        id,
		Prog:      prog,
		Mode:      mode,
		Transport: tr,
		Store:     provenance.NewStoreSharded(id, shards),
		Alloc:     alloc,
	}
	if mode == ProvValue {
		n.Mgr = bdd.New()
		if n.Alloc == nil {
			n.Alloc = algebra.NewVarAlloc()
		}
	}
	// The active plan set starts as the compile-time default; shards bind
	// their index handles against it (bindPlans), so it must exist first.
	n.plans = make([][]*plan, len(prog.Rules))
	for i, cr := range prog.Rules {
		n.plans[i] = append([]*plan(nil), cr.plans...)
	}
	n.condAcc = make([]condStat, prog.numConds)
	n.shards = make([]*shard, shards)
	for i := range n.shards {
		n.shards[i] = newShard(n, i, n.Store.Part(i))
	}
	if shards > 1 {
		n.initRounds()
	}
	return n
}

// NumShards reports the node's worker shard count.
func (n *Node) NumShards() int { return len(n.shards) }

// rounds reports whether the node evaluates in batched round mode.
func (n *Node) rounds() bool { return len(n.shards) > 1 }

// ownerShard returns the worker shard owning a tuple: a content-derived
// hash, so the assignment is reproducible across processes.
func (n *Node) ownerShard(t types.Tuple) *shard {
	return n.shards[n.ownerIdx(t)]
}

// ownerIdx returns the owning shard's index; the round runtime buckets
// cross-shard deltas by it at emit time so the merge barrier can commit
// per-destination in parallel.
func (n *Node) ownerIdx(t types.Tuple) int {
	if len(n.shards) == 1 {
		return 0
	}
	return int(t.ContentHash() % uint64(len(n.shards)))
}

// Table exposes a single-shard node's relation for inspection (nil when
// absent). Sharded nodes partition each relation across shards — use Tuples
// and TupleCount, which merge across partitions.
func (n *Node) Table(pred string) *Relation {
	if len(n.shards) > 1 {
		return nil
	}
	return n.shards[0].lookup(pred)
}

// Tuples returns the visible tuples of a predicate across all shards,
// sorted canonically.
func (n *Node) Tuples(pred string) []types.Tuple {
	if len(n.shards) == 1 {
		if rel := n.shards[0].lookup(pred); rel != nil {
			return rel.Tuples()
		}
		return nil
	}
	var out []types.Tuple
	for _, sh := range n.shards {
		if rel := sh.lookup(pred); rel != nil {
			out = append(out, rel.Tuples()...)
		}
	}
	types.SortTuples(out)
	return out
}

// TupleCount reports the number of visible tuples of a predicate across all
// shards in O(shards).
func (n *Node) TupleCount(pred string) int {
	c := 0
	for _, sh := range n.shards {
		if rel := sh.lookup(pred); rel != nil {
			c += rel.Len()
		}
	}
	return c
}

// DeltasProcessed reports the number of deltas the node has applied.
//
//exspan:merge-phase
func (n *Node) DeltasProcessed() int64 {
	var c int64
	for _, sh := range n.shards {
		c += sh.deltasProcessed
	}
	return c
}

// AggGroupCount reports the number of aggregate groups still holding state
// (a non-empty input multiset, an emitted output, or a live COUNT total)
// across all shards — the aggregate-side leak check of full-retraction
// tests: after every base tuple is retracted, it must be zero.
func (n *Node) AggGroupCount() int {
	c := 0
	for _, sh := range n.shards {
		for _, groups := range sh.aggByRule {
			for _, g := range groups {
				if len(g.entries) > 0 || g.hasOut || g.total != 0 {
					c++
				}
			}
		}
	}
	return c
}

// RulesFired reports the number of rule firings the node has executed.
//
//exspan:merge-phase
func (n *Node) RulesFired() int64 {
	var c int64
	for _, sh := range n.shards {
		c += sh.rulesFired
	}
	return c
}

// PayloadOf returns the value-mode provenance payload of a visible tuple —
// the "immediately available" provenance that lets a node accept or reject
// state without a distributed query. It reports false when the node is not
// in ProvValue mode or the tuple is not visible; interpret the Ref against
// n.Mgr and the cluster's shared VarAlloc.
func (n *Node) PayloadOf(t types.Tuple) (bdd.Ref, bool) {
	if n.Mode != ProvValue {
		return bdd.False, false
	}
	rel := n.shards[0].lookup(t.Pred) // ProvValue nodes are single-shard
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

// depositMessage routes a received delta to its owner shard without
// draining — the Scheduler drives evaluation itself.
func (n *Node) depositMessage(from types.NodeID, m *Message) {
	d, ok := n.messageDelta(from, m)
	if !ok {
		return
	}
	n.deposit(d)
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
	if len(n.shards) == 1 {
		n.shards[0].enqueue(d)
		n.drain()
		return
	}
	n.ownerShard(d.tuple).enqueue(d)
	n.runRounds()
}

// deposit routes a delta to its owner shard without draining — the
// Scheduler drives sharded execution itself.
func (n *Node) deposit(d localDelta) { n.ownerShard(d.tuple).enqueue(d) }

func (n *Node) fail(err error) {
	if n.Err == nil {
		n.Err = err
	}
}

// syncErr propagates the first shard error (in shard order) to Err.
//
//exspan:merge-phase
func (n *Node) syncErr() {
	if n.Err != nil {
		return
	}
	for _, sh := range n.shards {
		if sh.err != nil {
			n.Err = sh.err
			return
		}
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
// occupied SCC stratum (PredInfo.Stratum) across all shards as one batch of
// rederive deltas, so a suspect's supports re-derive before the suspects
// that consume them validate, and the driver pays one release/flush round
// trip per stratum instead of one per suspect. Strata that release only
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
	n.releasing = true
	defer func() { n.releasing = false }()
	for {
		stratum := -1
		for _, sh := range n.shards {
			if s := sh.minStagedStratum(); s >= 0 && (stratum < 0 || s < stratum) {
				stratum = s
			}
		}
		if stratum < 0 {
			return false
		}
		any := false
		for _, sh := range n.shards {
			if sh.releaseStratum(stratum, nil) {
				any = true
			}
		}
		if any {
			return true
		}
	}
}

// Flush runs any pending deposited work to local quiescence under the
// node's execution strategy (serial drain or sharded rounds).
func (n *Node) Flush() { n.localFixpoint() }

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

// drain processes queued deltas FIFO until quiescent — the serial PSN
// pipeline of a single-shard node.
//
//exspan:merge-phase
func (n *Node) drain() {
	if n.draining {
		return
	}
	n.draining = true
	defer func() { n.draining = false }()
	sh := n.shards[0]
	for sh.qhead < len(sh.queue) && sh.err == nil && n.Err == nil {
		sh.process(sh.popDelta(), false)
	}
	if sh.qhead == len(sh.queue) {
		sh.queue = sh.queue[:0]
		sh.qhead = 0
	}
	n.syncErr()
}

// newMessage draws an outgoing message from the pool when the evaluation is
// single-threaded (nil pool: plain allocation). Sharded fire phases run in
// parallel, so they bypass the pool.
func (n *Node) newMessage() *Message {
	if n.rounds() {
		return new(Message)
	}
	return n.Msgs.Get()
}

// Centralized-mode helpers: provenance rows travel to the server as plain
// prov/ruleExec tuples, whose byte sizes are charged like any message.
// Centralized nodes are single-shard, so enqueueing on shard 0 is the
// serial-mode local delivery.

func (n *Node) sendProvRow(loc types.NodeID, vid, rid types.ID, rloc types.NodeID, sign int8) {
	row := types.NewTuple("prov", types.Node(loc), types.IDVal(vid), types.IDVal(rid), types.Node(rloc))
	if n.Central == n.ID {
		n.shards[0].enqueue(localDelta{tuple: row, sign: sign, rloc: n.ID})
		return
	}
	m := n.newMessage()
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
		n.shards[0].enqueue(localDelta{tuple: row, sign: sign, rloc: n.ID})
		return
	}
	m := n.newMessage()
	m.Tuple, m.Delta = row, sign
	n.Transport.Send(n.ID, n.Central, m)
}
