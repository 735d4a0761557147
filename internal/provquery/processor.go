package provquery

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/provenance"
	"repro/internal/types"
)

// Strategy selects the query traversal order (§6.2).
type Strategy uint8

// Traversal strategies.
const (
	// BFS expands every alternative derivation of a vertex at once.
	BFS Strategy = iota
	// DFS expands alternative derivations one at a time, starting the
	// next only when the previous result has returned.
	DFS
	// DFSThreshold is DFS with early termination once the partial result
	// exceeds the query threshold.
	DFSThreshold
	// Moonwalk randomly samples up to MoonwalkN alternative derivations
	// at each vertex (the random moonwalk of §6.2); results are
	// approximate.
	Moonwalk
)

func (s Strategy) String() string {
	switch s {
	case BFS:
		return "bfs"
	case DFS:
		return "dfs"
	case DFSThreshold:
		return "dfs-threshold"
	case Moonwalk:
		return "moonwalk"
	}
	return "?"
}

type cacheEntry struct {
	udf     UDF // the UDF that computed payload
	payload []byte
}

// kid is one child of an in-flight vertex: an alternative derivation of a
// tuple vertex (a rule execution at rloc, or the base literal itself) or an
// input tuple of a rule execution.
type kid struct {
	id     types.ID     // child vertex: RID under a tuple vertex, VID under a rule vertex
	rloc   types.NodeID // tuple vertex only: where the rule execution lives
	base   bool         // tuple vertex only: a base derivation; result is precomputed
	done   bool
	result []byte // counted once done; nil when pruned
}

// childRef names slot idx of a live frame at this node.
type childRef struct {
	parent *frame
	idx    int
}

// origin says where a vertex's result goes: into a slot of a local parent
// frame, or — no parent — to node ret as a result message carrying qid.
// Query IDs exist only on that second path.
type origin struct {
	childRef
	qid types.ID
	ret types.NodeID
}

// frame is one in-flight vertex of a traversal: a tuple vertex expanding its
// alternative derivations (the idb1-idb4 rules) or a rule execution vertex
// expanding its input tuples (rv1-rv4).
type frame struct {
	origin
	isRule   bool
	vid      types.ID // the tuple vertex; for a rule vertex, the head it derives
	rid      types.ID // rule vertex only
	rule     string   // rule vertex only: the rule label
	kids     []kid
	next     int // DFS cursor
	finished bool
}

// Processor executes the distributed provenance-query protocol at one node.
type Processor struct {
	Node  types.NodeID
	Store *provenance.Store
	UDF   UDF

	Strategy  Strategy
	Threshold int64
	MoonwalkN int
	CacheOn   bool

	// Send ships a protocol message to another node; the runtime charges
	// its wire size. Self-sends never occur (local vertices are expanded by
	// direct calls, like RapidNet local events). A sent Msg belongs to the
	// transport: when Msgs is set, the transport releases it back to the
	// pool once consumed.
	Send func(to types.NodeID, m *Msg)

	// Msgs, when set, is the free list protocol messages are drawn from.
	// Nil keeps plain allocation.
	Msgs *MsgPool

	rng *rand.Rand

	cache     map[types.ID]*cacheEntry
	ruleCache map[types.ID]*cacheEntry
	// waiting maps the RQID of a rule query out at another node to the
	// frame slot its result fills; onComplete holds root-query callbacks.
	waiting    map[types.ID]childRef
	onComplete map[types.ID]func(payload []byte)
	seq        uint64
	live       int      // frames opened and not yet finished
	collected  [][]byte // collect's scratch, valid until the next collect

	// Stats.
	CacheHits     int64
	CacheMisses   int64
	Invalidations int64
	QueriesServed int64
}

// NewProcessor creates a query processor bound to a node's provenance
// partition. It registers itself for provenance-change notifications to
// drive cache invalidation.
func NewProcessor(node types.NodeID, store *provenance.Store, udf UDF, send func(to types.NodeID, m *Msg)) *Processor {
	p := &Processor{
		Node:       node,
		Store:      store,
		UDF:        udf,
		Send:       send,
		MoonwalkN:  2,
		rng:        rand.New(rand.NewSource(int64(node)*7919 + 17)),
		cache:      map[types.ID]*cacheEntry{},
		ruleCache:  map[types.ID]*cacheEntry{},
		waiting:    map[types.ID]childRef{},
		onComplete: map[types.ID]func([]byte){},
	}
	prev := store.OnProvChange
	store.OnProvChange = func(vid types.ID) {
		if prev != nil {
			prev(vid)
		}
		p.invalidate(vid)
	}
	return p
}

// Query issues a root provenance query for tuple vertex vid stored at loc;
// cb runs when the result arrives. It returns the query instance ID.
func (p *Processor) Query(vid types.ID, loc types.NodeID, cb func(payload []byte)) types.ID {
	qid := p.mintID(vid)
	p.onComplete[qid] = cb
	if loc == p.Node {
		p.provQuery(origin{qid: qid, ret: p.Node}, vid)
		return qid
	}
	m := p.newMsg()
	m.Kind, m.QID, m.VID, m.Ret = KProvQuery, qid, vid, p.Node
	p.Send(loc, m)
	return qid
}

// mintID returns a fresh query ID — an opaque token unique to this node's
// seq-th request, salted with the vertex it asks about.
func (p *Processor) mintID(vertex types.ID) types.ID {
	p.seq++
	var b [28]byte
	binary.BigEndian.PutUint32(b[:4], uint32(int32(p.Node)))
	binary.BigEndian.PutUint64(b[4:12], p.seq)
	copy(b[12:], vertex[:16])
	return types.HashBytes(b[:])
}

// newMsg draws an outgoing message from the pool (nil pool: plain
// allocation).
func (p *Processor) newMsg() *Msg { return p.Msgs.Get() }

// Handle dispatches an incoming protocol message. Handlers copy the fields
// they keep and may retain the Payload slice, never the struct.
func (p *Processor) Handle(from types.NodeID, m *Msg) {
	switch m.Kind {
	case KProvQuery:
		p.provQuery(origin{qid: m.QID, ret: m.Ret}, m.VID)
	case KRuleQuery:
		p.ruleQuery(origin{qid: m.QID, ret: m.Ret}, m.RID, m.VID)
	case KProvResult:
		p.provResult(m.QID, m.Payload)
	case KRuleResult:
		p.ruleResult(m.QID, m.Payload)
	case KInvalidate:
		p.invalidate(m.VID)
	}
}

// answer delivers a vertex's result to where the vertex was asked from.
func (p *Processor) answer(to origin, isRule bool, vertex types.ID, payload []byte) {
	switch {
	case to.parent != nil:
		p.childDone(to.parent, to.idx, payload)
	case to.ret != p.Node:
		m := p.newMsg()
		if isRule {
			m.Kind, m.RID = KRuleResult, vertex
		} else {
			m.Kind, m.VID = KProvResult, vertex
		}
		m.QID, m.Ret, m.Payload = to.qid, to.ret, payload
		p.Send(to.ret, m)
	case isRule:
		p.ruleResult(to.qid, payload)
	default:
		p.provResult(to.qid, payload)
	}
}

// provResult completes a root query issued here.
func (p *Processor) provResult(qid types.ID, payload []byte) {
	if cb, ok := p.onComplete[qid]; ok {
		delete(p.onComplete, qid)
		cb(payload)
	}
}

// ruleResult takes the answer to a rule query this node sent out.
func (p *Processor) ruleResult(rqid types.ID, payload []byte) {
	if ref, ok := p.waiting[rqid]; ok {
		delete(p.waiting, rqid)
		p.childDone(ref.parent, ref.idx, payload)
	}
}

// provQuery expands tuple vertex vid: one kid per alternative derivation.
func (p *Processor) provQuery(from origin, vid types.ID) {
	p.QueriesServed++
	if p.cached(p.cache, from, false, vid) {
		return
	}
	derivs := p.Store.Derivations(vid)
	f := &frame{origin: from, vid: vid, kids: make([]kid, len(derivs))}
	for i, d := range derivs {
		if !d.RID.IsZero() {
			f.kids[i] = kid{id: d.RID, rloc: d.RLoc}
		} else if t, ok := p.Store.TupleOf(vid); ok {
			f.kids[i] = kid{base: true, result: p.UDF.EDB(t, vid, p.Node)}
		} else {
			f.kids[i] = kid{base: true, result: p.UDF.IDB(nil, vid, p.Node)}
		}
	}
	if p.Strategy == Moonwalk {
		// Sample up to MoonwalkN alternatives; the rest are pruned and
		// contribute nothing. (Rule inputs are never sampled: a join needs
		// every one.)
		order := p.rng.Perm(len(f.kids))
		for _, i := range order[min(p.MoonwalkN, len(order)):] {
			f.kids[i] = kid{done: true}
		}
	}
	p.live++
	p.advance(f)
}

// ruleQuery expands rule execution vertex rid, asked about on behalf of the
// head tuple headVID: one kid per input tuple. Rule bodies are localized, so
// every input is a local tuple vertex; their own derivations may still fan
// out to other nodes.
func (p *Processor) ruleQuery(from origin, rid, headVID types.ID) {
	if p.cached(p.ruleCache, from, true, rid) {
		return
	}
	re, ok := p.Store.RuleExecOf(rid)
	if !ok {
		// The rule execution was retracted while the query was in flight
		// (churn): it derives nothing, so the answer is the additive zero —
		// not the empty product, which would claim a trivial derivation.
		p.answer(from, true, rid, p.UDF.IDB(nil, headVID, p.Node))
		return
	}
	f := &frame{origin: from, isRule: true, vid: headVID, rid: rid, rule: re.Rule, kids: make([]kid, len(re.VIDList))}
	for i, vid := range re.VIDList {
		f.kids[i].id = vid
	}
	p.live++
	p.advance(f)
}

// cached answers a vertex from its result cache, reporting whether it did.
func (p *Processor) cached(cache map[types.ID]*cacheEntry, from origin, isRule bool, vertex types.ID) bool {
	if !p.CacheOn {
		return false
	}
	if ce, ok := cache[vertex]; ok && ce.udf == p.UDF {
		p.CacheHits++
		p.answer(from, isRule, vertex, ce.payload)
		return true
	}
	p.CacheMisses++
	return false
}

// advance opens f's unresolved kids per the traversal strategy — all at once,
// or under DFS one at a time, resuming at the cursor each time one returns —
// and finishes f when its result is determined.
func (p *Processor) advance(f *frame) {
	if p.Strategy == DFS || p.Strategy == DFSThreshold {
		for f.next < len(f.kids) && !p.exceeds(f) {
			if k := &f.kids[f.next]; k.base {
				k.done = true
				f.next++
				continue
			}
			p.open(f, f.next)
			return // wait for this kid before expanding the next
		}
	} else {
		for i := range f.kids {
			if k := &f.kids[i]; k.base {
				k.done = true
			} else if !k.done {
				p.open(f, i)
			}
		}
	}
	p.maybeFinish(f)
}

// open starts kid idx of f: a direct call when the kid vertex is local, a
// rule query under a fresh RQID when it lives at another node.
func (p *Processor) open(f *frame, idx int) {
	k := &f.kids[idx]
	here := origin{childRef: childRef{f, idx}, ret: p.Node}
	switch {
	case f.isRule:
		p.provQuery(here, k.id)
	case k.rloc == p.Node:
		p.ruleQuery(here, k.id, f.vid)
	default:
		rqid := p.mintID(k.id)
		p.waiting[rqid] = here.childRef
		m := p.newMsg()
		m.Kind, m.QID, m.RID, m.VID, m.Ret = KRuleQuery, rqid, k.id, f.vid, p.Node
		p.Send(k.rloc, m)
	}
}

// childDone records the result of kid idx. A result for a frame that has
// already finished (threshold-terminated) is dropped.
func (p *Processor) childDone(f *frame, idx int, payload []byte) {
	if f.finished {
		return
	}
	f.kids[idx].result, f.kids[idx].done = payload, true
	if p.Strategy == DFS || p.Strategy == DFSThreshold {
		f.next = idx + 1
		p.advance(f)
		return
	}
	p.maybeFinish(f)
}

// collect gathers the results f has so far into the processor's scratch.
func (p *Processor) collect(f *frame) [][]byte {
	out := p.collected[:0]
	for i := range f.kids {
		if k := &f.kids[i]; k.done && k.result != nil {
			out = append(out, k.result)
		}
	}
	p.collected = out
	return out
}

// exceeds reports whether a DFS-THRESHOLD traversal may stop at f with what
// it has collected. A rule vertex with no input result yet never stops: the
// empty product says nothing about the join.
func (p *Processor) exceeds(f *frame) bool {
	if p.Strategy != DFSThreshold {
		return false
	}
	got := p.collect(f)
	if f.isRule {
		return len(got) > 0 && p.UDF.Exceeds(CtxRule, got, p.Threshold)
	}
	return p.UDF.Exceeds(CtxIDB, got, p.Threshold)
}

// maybeFinish combines f's results and answers once every kid is done or
// the threshold is crossed.
func (p *Processor) maybeFinish(f *frame) {
	if f.finished {
		return
	}
	complete := true
	for i := range f.kids {
		if !f.kids[i].done {
			complete = false
			break
		}
	}
	if !complete && !p.exceeds(f) {
		return
	}
	f.finished = true
	p.live--
	// Threshold-truncated and moonwalk-sampled results are partial; only
	// complete traversals are cached.
	cache := p.CacheOn && complete && p.Strategy != Moonwalk
	if !f.isRule {
		res := p.UDF.IDB(p.collect(f), f.vid, p.Node)
		if cache {
			p.cache[f.vid] = &cacheEntry{udf: p.UDF, payload: res}
		}
		p.answer(f.origin, false, f.vid, res)
		return
	}
	res := p.UDF.Rule(p.collect(f), f.rule, p.Node)
	if cache {
		p.ruleCache[f.rid] = &cacheEntry{udf: p.UDF, payload: res}
		// Install the §6.1 reverse dataflow edges for this now-cached
		// traversal level: each input tuple (local, bodies are localized)
		// points through this rule execution at the head vertex it
		// derives. Edges are created here — per cached traversal — rather
		// than on every derivation in the engine, and are consumed when an
		// invalidation wave clears this level.
		for i := range f.kids {
			p.Store.AddParent(f.kids[i].id, f.rid, f.vid, f.ret)
		}
	}
	p.answer(f.origin, true, f.rid, res)
}

// --- cache invalidation (§6.1) -------------------------------------------

// invalidate drops cached results that depend on vid and propagates the
// invalidation flag toward dependent (head) tuples. Propagation stops as
// soon as a node had nothing cached: a cached ancestor implies cached
// results along the whole reverse path (complete traversals cache — and
// install reverse edges — at every level), so an empty cache bounds the
// walk. The walked edges are consumed: every cache at or above this vertex
// is cold afterwards, and the next cached traversal re-installs them.
func (p *Processor) invalidate(vid types.ID) {
	if !p.CacheOn {
		return
	}
	removed := false
	if _, ok := p.cache[vid]; ok {
		delete(p.cache, vid)
		removed = true
	}
	parents := p.Store.Parents(vid)
	for _, par := range parents {
		if _, ok := p.ruleCache[par.RID]; ok {
			delete(p.ruleCache, par.RID)
			removed = true
		}
	}
	if len(parents) > 0 {
		p.Store.DropParents(vid)
	}
	if !removed {
		return
	}
	p.Invalidations++
	for _, par := range parents {
		if par.HeadLoc == p.Node {
			p.invalidate(par.HeadVID)
		} else {
			m := p.newMsg()
			m.Kind, m.VID = KInvalidate, par.HeadVID
			p.Send(par.HeadLoc, m)
		}
	}
}

// CacheSize reports the number of cached vertex results (tuple + rule).
func (p *Processor) CacheSize() int { return len(p.cache) + len(p.ruleCache) }

// Pending reports the number of in-flight query protocol records (live
// frames, rule queries out at other nodes and completion callbacks) — a
// diagnostic for leak detection in long churn runs.
func (p *Processor) Pending() int { return p.live + len(p.waiting) + len(p.onComplete) }
