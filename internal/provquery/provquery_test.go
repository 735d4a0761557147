package provquery

import (
	"bytes"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bdd"
	"repro/internal/provenance"
	"repro/internal/types"
)

// buildFig5 constructs the paper's Figure 5 provenance graph across four
// stores (nodes a..d; only a and b are populated) and wires processors
// with an in-memory instant network.
//
//	bestPathCost(@a,c,5) <- sp3@a <- pathCost(@a,c,5)
//	pathCost(@a,c,5) <- sp1@a <- link(@a,c,5)
//	pathCost(@a,c,5) <- sp2@b <- link(@b,a,3), bestPathCost(@b,c,2)
//	bestPathCost(@b,c,2) <- sp3@b <- pathCost(@b,c,2) <- sp1@b <- link(@b,c,2)
type fig5 struct {
	procs []*Processor
	byID  map[types.NodeID]*Processor

	bpcA, pcA, linkAC         types.Tuple
	bpcB, pcB, linkBA, linkBC types.Tuple
}

type instantNet struct {
	procs *[]*Processor
	queue []queuedMsg
	busy  bool
	Sent  int
	Bytes int
}

type queuedMsg struct {
	to types.NodeID
	m  *Msg
}

func (n *instantNet) send(to types.NodeID, m *Msg) {
	n.Sent++
	n.Bytes += m.WireSize()
	// Round-trip the codec to exercise serialization.
	dec, err := DecodeMsg(m.Encode(nil))
	if err != nil {
		panic(err)
	}
	n.queue = append(n.queue, queuedMsg{to, dec})
	n.drain()
}

func (n *instantNet) drain() {
	if n.busy {
		return
	}
	n.busy = true
	defer func() { n.busy = false }()
	for len(n.queue) > 0 {
		q := n.queue[0]
		n.queue = n.queue[1:]
		(*n.procs)[q.to].Handle(q.to, q.m)
	}
}

// engineWriter stands in for the engine in these fixtures: it writes a
// node's store the way the engine does, through the vertex API (AddRuleExec
// and the reverse-edge methods the processor itself uses come through the
// embedded Store).
type engineWriter struct{ *provenance.Store }

func (w engineWriter) AddProv(t types.Tuple, rid types.ID, rloc types.NodeID) {
	w.Store.AddProv(w.Vertex(t.VID(), t), rid, rloc)
}

// AddRuleExec writes the row of rule number num over the input tuples'
// vertices.
func (w engineWriter) AddRuleExec(rid types.ID, num int, rule string, inputs ...types.Tuple) {
	vs := make([]*provenance.Vertex, len(inputs))
	for i, t := range inputs {
		vs[i] = w.Vertex(t.VID(), t)
	}
	w.Store.AddRuleExec(rid, num, rule, vs)
}

func newFig5(t *testing.T, udf UDF, strategy Strategy, threshold int64, cacheOn bool) (*fig5, *instantNet) {
	t.Helper()
	f := &fig5{byID: map[types.NodeID]*Processor{}}
	net := &instantNet{procs: &f.procs}
	a, b, c := types.NodeID(0), types.NodeID(1), types.NodeID(2)

	stores := make([]*provenance.Store, 4)
	for i := range stores {
		stores[i] = provenance.NewStore(types.NodeID(i))
	}

	f.linkAC = types.NewTuple("link", types.Node(a), types.Node(c), types.Int(5))
	f.linkBA = types.NewTuple("link", types.Node(b), types.Node(a), types.Int(3))
	f.linkBC = types.NewTuple("link", types.Node(b), types.Node(c), types.Int(2))
	f.pcA = types.NewTuple("pathCost", types.Node(a), types.Node(c), types.Int(5))
	f.pcB = types.NewTuple("pathCost", types.Node(b), types.Node(c), types.Int(2))
	f.bpcA = types.NewTuple("bestPathCost", types.Node(a), types.Node(c), types.Int(5))
	f.bpcB = types.NewTuple("bestPathCost", types.Node(b), types.Node(c), types.Int(2))

	// Node a's partition.
	sa := engineWriter{stores[a]}
	sa.AddProv(f.linkAC, types.ZeroID, a)
	rid1a := types.RuleExecID("sp1", a, []types.ID{f.linkAC.VID()})
	sa.AddProv(f.pcA, rid1a, a)
	sa.AddRuleExec(rid1a, 0, "sp1", f.linkAC)
	rid2b := types.RuleExecID("sp2", b, []types.ID{f.linkBA.VID(), f.bpcB.VID()})
	sa.AddProv(f.pcA, rid2b, b)
	rid3a := types.RuleExecID("sp3", a, []types.ID{f.pcA.VID()})
	sa.AddProv(f.bpcA, rid3a, a)
	sa.AddRuleExec(rid3a, 2, "sp3", f.pcA)
	sa.AddParent(f.linkAC.VID(), rid1a, f.pcA.VID(), a)
	sa.AddParent(f.pcA.VID(), rid3a, f.bpcA.VID(), a)

	// Node b's partition.
	sb := engineWriter{stores[b]}
	sb.AddProv(f.linkBA, types.ZeroID, b)
	sb.AddProv(f.linkBC, types.ZeroID, b)
	rid1b := types.RuleExecID("sp1", b, []types.ID{f.linkBC.VID()})
	sb.AddProv(f.pcB, rid1b, b)
	sb.AddRuleExec(rid1b, 0, "sp1", f.linkBC)
	rid3b := types.RuleExecID("sp3", b, []types.ID{f.pcB.VID()})
	sb.AddProv(f.bpcB, rid3b, b)
	sb.AddRuleExec(rid3b, 2, "sp3", f.pcB)
	sb.AddRuleExec(rid2b, 1, "sp2", f.linkBA, f.bpcB)
	sb.AddParent(f.linkBC.VID(), rid1b, f.pcB.VID(), b)
	sb.AddParent(f.pcB.VID(), rid3b, f.bpcB.VID(), b)
	sb.AddParent(f.linkBA.VID(), rid2b, f.pcA.VID(), a)
	sb.AddParent(f.bpcB.VID(), rid2b, f.pcA.VID(), a)

	for i := range stores {
		id := types.NodeID(i)
		p := NewProcessor(id, stores[i], udf, func(to types.NodeID, m *Msg) { net.send(to, m) })
		p.Strategy = strategy
		p.Threshold = threshold
		p.CacheOn = cacheOn
		f.procs = append(f.procs, p)
		f.byID[id] = p
	}
	return f, net
}

func runQuery(t *testing.T, f *fig5, issuer types.NodeID, tu types.Tuple, loc types.NodeID) []byte {
	t.Helper()
	var out []byte
	f.byID[issuer].Query(tu.VID(), loc, func(p []byte) { out = p })
	if out == nil {
		t.Fatalf("query for %s did not complete", tu)
	}
	return out
}

func TestPolynomialFig5(t *testing.T) {
	f, _ := newFig5(t, Polynomial{}, BFS, 0, false)
	payload := runQuery(t, f, 3, f.bpcA, 0)
	expr, err := DecodePolynomial(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := algebra.Eval(expr, algebra.Counting()); got != 2 {
		t.Fatalf("count = %d, want 2 (α and β·γ)", got)
	}
	bases := expr.BaseSet()
	if len(bases) != 3 {
		t.Fatalf("bases = %d, want 3", len(bases))
	}
}

func TestCountAcrossStrategies(t *testing.T) {
	for _, strat := range []Strategy{BFS, DFS} {
		f, _ := newFig5(t, Derivations(), strat, 0, false)
		if got := DecodeCount(runQuery(t, f, 3, f.bpcA, 0)); got != 2 {
			t.Fatalf("strategy %s: count = %d, want 2", strat, got)
		}
	}
}

func TestDFSThresholdStopsEarly(t *testing.T) {
	// "Does the tuple have more than 0 derivations?" — the first (local)
	// derivation of pathCost(@a,c,5) already answers it, so the remote
	// sp2@b expansion is pruned entirely.
	f, net := newFig5(t, Derivations(), DFSThreshold, 0, false)
	got := DecodeCount(runQuery(t, f, 3, f.bpcA, 0))
	if got < 1 {
		t.Fatalf("threshold result = %d, want >= 1", got)
	}
	thresholdMsgs := net.Sent

	f2, net2 := newFig5(t, Derivations(), BFS, 0, false)
	if DecodeCount(runQuery(t, f2, 3, f2.bpcA, 0)) != 2 {
		t.Fatal("BFS wrong")
	}
	if thresholdMsgs >= net2.Sent {
		t.Errorf("threshold used %d msgs, BFS %d; expected pruning", thresholdMsgs, net2.Sent)
	}
	// An unreachable threshold forces the full traversal: same messages
	// as plain DFS.
	f3, net3 := newFig5(t, Derivations(), DFSThreshold, 100, false)
	if DecodeCount(runQuery(t, f3, 3, f3.bpcA, 0)) != 2 {
		t.Fatal("high-threshold result wrong")
	}
	if net3.Sent != net2.Sent {
		t.Errorf("unreachable threshold sent %d msgs, full traversal sends %d", net3.Sent, net2.Sent)
	}
}

func TestNodeSetFig5(t *testing.T) {
	f, _ := newFig5(t, NodeSet(), BFS, 0, false)
	nodes := DecodeNodeSet(runQuery(t, f, 3, f.bpcA, 0))
	if len(nodes) != 2 || nodes[0] != 0 || nodes[1] != 1 {
		t.Fatalf("nodes = %v, want [a b]", nodes)
	}
}

func TestBDDFig5(t *testing.T) {
	// Each base tuple's variable is numbered in its owner's store.
	var f *fig5
	f, _ = newFig5(t, BDD(func(b algebra.Base) bdd.Var { return f.byID[b.Node].Store.BaseVar(b.VID) }), BFS, 0, false)
	m := bdd.New()
	root, ok := algebra.BDD(m, nil).Decode(runQuery(t, f, 3, f.bpcA, 0))
	if !ok {
		t.Fatal("BDD result does not decode")
	}
	if root == bdd.False || root == bdd.True {
		t.Fatal("degenerate BDD")
	}
	varOf := func(tu types.Tuple) bdd.Var { return f.byID[tu.Loc()].Store.BaseVar(tu.VID()) }
	varAC, varBA, varBC := varOf(f.linkAC), varOf(f.linkBA), varOf(f.linkBC)
	if varAC.Node != 0 || varBA.Node != 1 || varBC.Node != 1 || varBA == varBC {
		t.Fatalf("variables %v %v %v are not named by their owners", varAC, varBA, varBC)
	}
	if got := m.Support(root); len(got) != 3 {
		t.Fatalf("support %v, want the three links", got)
	}
	// With link(@a,c,5) true alone the tuple is derivable.
	if !m.Eval(root, map[bdd.Var]bool{varAC: true}) {
		t.Error("derivable via α alone")
	}
	// With only b's links it is also derivable (the β·γ path).
	if !m.Eval(root, map[bdd.Var]bool{varBA: true, varBC: true}) {
		t.Error("derivable via β·γ")
	}
	if m.Eval(root, map[bdd.Var]bool{varBA: true}) {
		t.Error("β alone should not derive")
	}
}

func TestDerivabilityWithTrust(t *testing.T) {
	// Excluding node b's base tuples leaves the α derivation.
	f, _ := newFig5(t, Derivability(func(b algebra.Base) bool { return b.Node != 1 }), BFS, 0, false)
	if !DecodeBool(runQuery(t, f, 3, f.bpcA, 0)) {
		t.Error("should be derivable without b")
	}
	// Excluding node a's base tuple still leaves β·γ.
	f2, _ := newFig5(t, Derivability(func(b algebra.Base) bool { return b.VID != f.linkAC.VID() }), BFS, 0, false)
	if !DecodeBool(runQuery(t, f2, 3, f2.bpcA, 0)) {
		t.Error("should be derivable without α")
	}
	// Excluding everything kills it.
	f3, _ := newFig5(t, Derivability(func(algebra.Base) bool { return false }), BFS, 0, false)
	if DecodeBool(runQuery(t, f3, 3, f3.bpcA, 0)) {
		t.Error("underivable when nothing is trusted")
	}
}

func TestCacheHitSecondQuery(t *testing.T) {
	f, net := newFig5(t, Polynomial{}, BFS, 0, true)
	r1 := runQuery(t, f, 3, f.bpcA, 0)
	firstMsgs := net.Sent
	r2 := runQuery(t, f, 3, f.bpcA, 0)
	secondMsgs := net.Sent - firstMsgs
	if string(r1) != string(r2) {
		t.Fatal("cached result differs")
	}
	// The second query hits the cache at node a: one query + one result.
	if secondMsgs >= firstMsgs {
		t.Errorf("no cache benefit: first %d msgs, second %d", firstMsgs, secondMsgs)
	}
	if f.byID[0].CacheHits == 0 {
		t.Error("no cache hits recorded")
	}
}

func TestSubtreeCacheServesDifferentRoot(t *testing.T) {
	// "Subsequent queries need not be for the exact tuple": after querying
	// bestPathCost(@b,c,2), the later bestPathCost(@a,c,5) query reaches
	// node b and reuses the cached subtree rooted at bestPathCost(@b,c,2)
	// instead of re-traversing it.
	f, _ := newFig5(t, Polynomial{}, BFS, 0, true)
	runQuery(t, f, 3, f.bpcB, 1)
	b := f.byID[1]
	hitsBefore, servedBefore := b.CacheHits, b.QueriesServed
	r1 := runQuery(t, f, 3, f.bpcA, 0)
	if b.CacheHits <= hitsBefore {
		t.Errorf("second query did not hit b's subtree cache (hits %d -> %d, served %d -> %d)",
			hitsBefore, b.CacheHits, servedBefore, b.QueriesServed)
	}
	// The warm result matches a cold traversal exactly.
	fCold, _ := newFig5(t, Polynomial{}, BFS, 0, false)
	r2 := runQuery(t, fCold, 3, fCold.bpcA, 0)
	if string(r1) != string(r2) {
		t.Error("cache-served subtree changed the query result")
	}
}

func TestInvalidationClearsCaches(t *testing.T) {
	f, _ := newFig5(t, Polynomial{}, BFS, 0, true)
	runQuery(t, f, 3, f.bpcA, 0)
	a, b := f.byID[0], f.byID[1]
	if a.CacheSize() == 0 || b.CacheSize() == 0 {
		t.Fatal("caches not populated")
	}
	// A change to link(@b,c,2) must invalidate the chain up to
	// bestPathCost(@a,c,5) at node a.
	engineWriter{b.Store}.AddProv(f.linkBC, types.HashString("newrule"), 1)
	if _, ok := a.cache[f.bpcA.VID()]; ok {
		t.Error("stale cache for bestPathCost(@a,c,5) survived invalidation")
	}
	if _, ok := a.cache[f.pcA.VID()]; ok {
		t.Error("stale cache for pathCost(@a,c,5) survived invalidation")
	}
	// Re-query returns fresh (and repopulates).
	runQuery(t, f, 3, f.bpcA, 0)
	if _, ok := a.cache[f.bpcA.VID()]; !ok {
		t.Error("cache not repopulated")
	}
}

func TestCacheCoherenceAfterChange(t *testing.T) {
	// Counting query; after adding a third derivation for pathCost(@a,c,5)
	// the cached count must not be served stale.
	f, _ := newFig5(t, Derivations(), BFS, 0, true)
	if got := DecodeCount(runQuery(t, f, 3, f.bpcA, 0)); got != 2 {
		t.Fatalf("initial count = %d", got)
	}
	a := f.byID[0]
	// New derivation: pretend sp1 fired again via a new rule at a (a
	// synthetic third derivation with a base child).
	extra := types.NewTuple("link", types.Node(0), types.Node(2), types.Int(7))
	w := engineWriter{a.Store}
	w.AddProv(extra, types.ZeroID, 0)
	rid := types.RuleExecID("spX", 0, []types.ID{extra.VID()})
	w.AddRuleExec(rid, 3, "spX", extra)
	w.AddParent(extra.VID(), rid, f.pcA.VID(), 0)
	w.AddProv(f.pcA, rid, 0)
	if got := DecodeCount(runQuery(t, f, 3, f.bpcA, 0)); got != 3 {
		t.Fatalf("post-change count = %d, want 3", got)
	}
}

func TestMoonwalkSamples(t *testing.T) {
	f, _ := newFig5(t, Derivations(), Moonwalk, 0, false)
	for _, p := range f.procs {
		p.MoonwalkN = 1
	}
	got := DecodeCount(runQuery(t, f, 3, f.bpcA, 0))
	// One sampled derivation at each fan-out: the result is 1 (either
	// branch), strictly less than the full count of 2.
	if got != 1 {
		t.Fatalf("moonwalk count = %d, want 1", got)
	}
}

func TestUnknownVertexAnswersEmpty(t *testing.T) {
	f, _ := newFig5(t, Derivations(), BFS, 0, false)
	missing := types.NewTuple("ghost", types.Node(0), types.Int(1))
	if got := DecodeCount(runQuery(t, f, 3, missing, 0)); got != 0 {
		t.Fatalf("missing vertex count = %d, want 0", got)
	}
}

// fiveUDFs returns one instance of every representation.
func fiveUDFs() []UDF {
	return []UDF{Polynomial{}, BDD(ownerVars()), Derivations(), NodeSet(), Derivability(nil)}
}

// ownerVars names each base tuple's BDD variable in a store of its owner's
// own, as core.Cluster.BaseVar does.
func ownerVars() func(algebra.Base) bdd.Var {
	stores := map[types.NodeID]*provenance.Store{}
	return func(b algebra.Base) bdd.Var {
		if stores[b.Node] == nil {
			stores[b.Node] = provenance.NewStore(b.Node)
		}
		return stores[b.Node].BaseVar(b.VID)
	}
}

// TestHostileRuleResultZeroesTheHop: node b answers a's rule query with a
// payload its representation rejects — a polynomial whose label length is
// 2^64-1 (the old decoder panicked on it, and a deployed receive loop has no
// recover), and five bytes that are a ragged node set, a short count, a
// BDD with a forward reference. The hop that receives it must answer Zero —
// which absorbs the products above it — and leave nothing pending.
func TestHostileRuleResultZeroesTheHop(t *testing.T) {
	hugeLabel := append(append([]byte{byte(algebra.OpBase)}, make([]byte, types.IDLen+4)...),
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	type hostileCase struct {
		u       UDF
		hostile []byte
	}
	cases := []hostileCase{{Polynomial{}, hugeLabel}}
	for _, u := range fiveUDFs() {
		cases = append(cases, hostileCase{u, []byte{1, 2, 3, 4, 5}})
	}
	for _, tc := range cases {
		f, net := newFig5(t, tc.u, BFS, 0, false)
		f.byID[1].Send = func(to types.NodeID, m *Msg) {
			if m.Kind == KRuleResult {
				m.Payload = tc.hostile
			}
			net.send(to, m)
		}
		zero := tc.u.IDB(nil, types.ZeroID, 0)
		if got := runQuery(t, f, 3, f.bpcA, 0); !bytes.Equal(got, zero) {
			t.Errorf("%s, b answers %x: result %x, want Zero %x", tc.u.Name(), tc.hostile, got, zero)
		}
		for _, p := range f.procs {
			if n := p.Pending(); n != 0 {
				t.Errorf("%s: node %s: %d pending records", tc.u.Name(), p.Node, n)
			}
		}
	}
}

// TestRetractedRuleExecDerivesNothing: node a still lists a derivation of
// pathCost(@a,c,5) through a rule execution node b no longer holds (it was
// retracted while the query was in flight). Under every representation the
// answer is the one without that derivation: b answers the additive zero,
// not the empty product, which would be a phantom trivial derivation.
func TestRetractedRuleExecDerivesNothing(t *testing.T) {
	for _, u := range fiveUDFs() {
		f, _ := newFig5(t, u, BFS, 0, false)
		want := runQuery(t, f, 3, f.bpcA, 0)
		engineWriter{f.byID[0].Store}.AddProv(f.pcA, types.HashString("retracted"), 1)
		if got := runQuery(t, f, 3, f.bpcA, 0); !bytes.Equal(got, want) {
			t.Errorf("%s: %x with a retracted rule execution, want %x", u.Name(), got, want)
		}
	}
}

func TestMsgCodecRoundTrip(t *testing.T) {
	msgs := []*Msg{
		{Kind: KProvQuery, QID: types.HashString("q"), VID: types.HashString("v"), Ret: 3},
		{Kind: KRuleQuery, QID: types.HashString("q"), RID: types.HashString("r"), Ret: 1},
		{Kind: KProvResult, QID: types.HashString("q"), VID: types.HashString("v"), Ret: 2, Payload: []byte{9, 8}},
		{Kind: KRuleResult, QID: types.HashString("q"), RID: types.HashString("r"), Ret: 0, Payload: []byte{}},
		{Kind: KInvalidate, VID: types.HashString("v")},
	}
	for _, m := range msgs {
		enc := m.Encode(nil)
		if len(enc) != m.WireSize() {
			t.Errorf("kind %d: wire size %d != %d", m.Kind, m.WireSize(), len(enc))
		}
		dec, err := DecodeMsg(enc)
		if err != nil {
			t.Fatalf("kind %d: %v", m.Kind, err)
		}
		if dec.Kind != m.Kind || dec.QID != m.QID || dec.VID != m.VID ||
			dec.RID != m.RID || dec.Ret != m.Ret || string(dec.Payload) != string(m.Payload) {
			t.Errorf("kind %d: round trip mismatch", m.Kind)
		}
	}
	if _, err := DecodeMsg(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := DecodeMsg([]byte{99}); err == nil {
		t.Error("bad kind accepted")
	}
}
