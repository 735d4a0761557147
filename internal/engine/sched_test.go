package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/ndlog"
	"repro/internal/topology"
	"repro/internal/types"
)

// These tests pin the two executors' equivalence contract: the canonical
// fixpoint state (WriteStates) of batched rounds matches the inline drain's
// exactly, from-scratch and
// under delete/re-insert churn. They run the same random topologies through
// drain nodes on a synchronous transport (the reference), a scheduler whose
// nodes drain and the production scheduler (batched), and diff the outcomes.

// executors is the test dimension of a node's two executors: the inline
// drain (false) and batched rounds (true).
var executors = []bool{false, true}

func executorName(batched bool) string {
	if batched {
		return "batched"
	}
	return "drain"
}

// randomLinks generates a connected random graph: a spanning tree plus a few
// extra edges, deduplicated (parallel links with distinct costs drive the
// MIN-aggregate cascade into pathological transient churn on dense graphs —
// a property of the workload, not of the runtime under test).
func randomLinks(n int, extra int, rng *rand.Rand) [][2]int {
	seen := map[[2]int]bool{}
	var edges [][2]int
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			return
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, [2]int{u, v})
	}
	for i := 1; i < n; i++ {
		add(rng.Intn(i), i)
	}
	for k := 0; k < extra; k++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return edges
}

// edgeCost derives a stable cost from the endpoints, so insert and churn
// scripts always agree on each link's tuple. An explicit cost table (from a
// topology) overrides it.
func edgeCost(e [2]int, costs map[[2]int]int64) int64 {
	if c, ok := costs[e]; ok {
		return c
	}
	return int64(1 + (7*e[0]+3*e[1])%5)
}

func linkTup(u, v int, cost int64) types.Tuple {
	return types.NewTuple("link", types.Node(types.NodeID(u)), types.Node(types.NodeID(v)), types.Int(cost))
}

// runSched drives one scheduler cluster through the insert/churn script.
func runSched(t *testing.T, prog *Program, mode ProvMode, nNodes int, batched bool, workers int,
	edges [][2]int, churn [][2]int, costs map[[2]int]int64) *Scheduler {
	t.Helper()
	s := newScheduler(prog, mode, nNodes, workers, batched)
	for _, e := range edges {
		cost := edgeCost(e, costs)
		s.InsertBase(types.NodeID(e[0]), linkTup(e[0], e[1], cost))
		s.InsertBase(types.NodeID(e[1]), linkTup(e[1], e[0], cost))
	}
	if err := s.Run(); err != nil {
		t.Fatalf("insert fixpoint: %v", err)
	}
	// Churn: retract a subset, re-run, re-insert half of it, re-run.
	for i, e := range churn {
		cost := edgeCost(e, costs)
		s.DeleteBase(types.NodeID(e[0]), linkTup(e[0], e[1], cost))
		s.DeleteBase(types.NodeID(e[1]), linkTup(e[1], e[0], cost))
		if i%2 == 0 {
			s.InsertBase(types.NodeID(e[0]), linkTup(e[0], e[1], cost))
			s.InsertBase(types.NodeID(e[1]), linkTup(e[1], e[0], cost))
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("churn fixpoint: %v", err)
	}
	return s
}

// runSerialRef computes the same script on the serial reference (plain
// NewNode + synchronous FIFO transport). The transport cascades to
// global quiescence inside every InsertBase/DeleteBase, so each op is
// followed by a Settle releasing the retraction protocol's staged
// re-derivations — the serial analogue of the drivers' idle-point release.
func runSerialRef(t *testing.T, prog *Program, mode ProvMode, nNodes int,
	edges [][2]int, churn [][2]int, costs map[[2]int]int64) []*Node {
	t.Helper()
	tr := &refTransport{}
	nodes := make([]*Node, nNodes)
	for i := range nodes {
		nodes[i] = NewNode(types.NodeID(i), prog, mode, tr)
	}
	tr.nodes = nodes
	for _, e := range edges {
		cost := edgeCost(e, costs)
		nodes[e[0]].InsertBase(linkTup(e[0], e[1], cost))
		nodes[e[1]].InsertBase(linkTup(e[1], e[0], cost))
	}
	Settle(nodes...)
	for i, e := range churn {
		cost := edgeCost(e, costs)
		nodes[e[0]].DeleteBase(linkTup(e[0], e[1], cost))
		nodes[e[1]].DeleteBase(linkTup(e[1], e[0], cost))
		Settle(nodes...)
		if i%2 == 0 {
			nodes[e[0]].InsertBase(linkTup(e[0], e[1], cost))
			nodes[e[1]].InsertBase(linkTup(e[1], e[0], cost))
			Settle(nodes...)
		}
	}
	for _, n := range nodes {
		if n.Err != nil {
			t.Fatalf("serial reference: %v", n.Err)
		}
	}
	return nodes
}

// refTransport delivers messages synchronously in FIFO order.
type refTransport struct {
	nodes []*Node
	queue []struct {
		from, to types.NodeID
		m        *Message
	}
	busy bool
}

func (tr *refTransport) Send(from, to types.NodeID, m *Message) {
	tr.queue = append(tr.queue, struct {
		from, to types.NodeID
		m        *Message
	}{from, to, m})
	if tr.busy {
		return
	}
	tr.busy = true
	defer func() { tr.busy = false }()
	for len(tr.queue) > 0 {
		q := tr.queue[0]
		tr.queue = tr.queue[1:]
		tr.nodes[q.to].HandleMessage(q.from, q.m)
	}
}

// diffStates fails the test with what differs between two clusters'
// canonical fixpoint states.
func diffStates(t *testing.T, label string, want, got []*Node) {
	t.Helper()
	if d := DiffStates(want, got); d != "" {
		t.Errorf("%s: fixpoint state mismatch (- want, + got)\n%s", label, d)
	}
}

// executorEquivalence checks serial/scheduler agreement on one random graph.
// extra > 0 adds cycle-closing edges; withChurn retracts (and re-inserts
// half of) a random subset of ALL edges — spanning-tree and cycle-closing
// alike. Disconnecting deletions and deletions that kill the cheapest route
// on a cycle are exactly the retractions the two-phase over-delete/
// re-derive discipline exists for (see ARCHITECTURE.md "Deletion
// semantics"); before it, unbounded-cost programs diverged here by
// count-to-infinity and churn had to be pinned to stub edges.
func executorEquivalence(t *testing.T, prog *Program, mode ProvMode, seed int64, extra int, withChurn bool) {
	t.Helper()
	const nNodes = 12
	rng := rand.New(rand.NewSource(seed))
	edges := randomLinks(nNodes, extra, rng)
	var churn [][2]int
	if withChurn {
		for _, e := range edges {
			if rng.Intn(3) == 0 {
				churn = append(churn, e)
			}
		}
	}
	equivalenceOn(t, prog, mode, nNodes, edges, churn, nil)
}

// equivalenceOn runs one explicit insert/churn script through the serial
// reference and several scheduler configurations and diffs the outcomes.
// costs overrides edgeCost per (u,v) pair when non-nil.
func equivalenceOn(t *testing.T, prog *Program, mode ProvMode,
	nNodes int, edges, churn [][2]int, costs map[[2]int]int64) {
	t.Helper()
	serial := runSerialRef(t, prog, mode, nNodes, edges, churn, costs)
	for _, batched := range executors {
		for _, workers := range []int{1, 4} {
			s := runSched(t, prog, mode, nNodes, batched, workers, edges, churn, costs)
			label := fmt.Sprintf("%s workers=%d", executorName(batched), workers)
			diffStates(t, label, serial, s.Engines())
		}
	}

	// Determinism across worker counts and repeated runs: byte accounting
	// and round counts of the production scheduler must reproduce exactly.
	a := runSched(t, prog, mode, nNodes, true, 1, edges, churn, costs)
	b := runSched(t, prog, mode, nNodes, true, 4, edges, churn, costs)
	if a.TotalBytes != b.TotalBytes || a.Rounds != b.Rounds {
		t.Errorf("scheduler runs diverge: bytes %d vs %d, rounds %d vs %d",
			a.TotalBytes, b.TotalBytes, a.Rounds, b.Rounds)
	}
	for i := range a.SentBytes {
		if a.SentBytes[i] != b.SentBytes[i] || a.SentMsgs[i] != b.SentMsgs[i] {
			t.Fatalf("node %d counters diverge across identical scheduler runs", i)
		}
	}
}

// topoScript converts a topology's links into the insert script, with churn
// picking arbitrary links — transit and spanning-tree tiers included, not
// just the stub-stub edges whose removal provably keeps MINCOST convergent.
// The two-phase retraction discipline makes arbitrary deletions terminate,
// so churn no longer needs to dodge disconnecting or cycle-breaking links.
func topoScript(topo *topology.Topology, churnN int) (edges, churn [][2]int, costs map[[2]int]int64) {
	costs = map[[2]int]int64{}
	for _, l := range topo.Links {
		e := [2]int{int(l.U), int(l.V)}
		edges = append(edges, e)
		costs[e] = l.Cost
	}
	for i := 0; i < len(topo.Links) && i < churnN; i++ {
		// Stride across the link list so the churn sample spans tiers.
		l := topo.Links[(i*7)%len(topo.Links)]
		churn = append(churn, [2]int{int(l.U), int(l.V)})
	}
	return edges, churn, costs
}

func TestShardedMinCostMatchesSerial(t *testing.T) {
	prog, err := Compile(apps.MinCost())
	if err != nil {
		t.Fatal(err)
	}
	// The unbounded-cost MINCOST program runs over both ring and meshy
	// random topologies, with churn hitting arbitrary links (ring edges
	// whose removal disconnects the logical cycle into a line, and
	// cycle-closing mesh edges whose removal kills cheapest routes). The
	// two-phase retraction discipline makes every combination terminate;
	// TestSchedulerMatchesSimnet (internal/core) covers the full
	// transit-stub benchmark topology against the simulator.
	for seed := int64(1); seed <= 2; seed++ {
		ring := topology.Ring(12, rand.New(rand.NewSource(seed)))
		edges, churn, costs := topoScript(ring, 3)
		equivalenceOn(t, prog, ProvReference, ring.N, edges, churn, costs)
		equivalenceOn(t, prog, ProvNone, ring.N, edges, churn, costs)
	}
	executorEquivalence(t, prog, ProvReference, 5, 4, true)
	executorEquivalence(t, prog, ProvNone, 6, 4, true)
}

func TestShardedPathVectorMatchesSerial(t *testing.T) {
	prog, err := Compile(apps.PathVector())
	if err != nil {
		t.Fatal(err)
	}
	executorEquivalence(t, prog, ProvReference, 7, 3, true)
}

// TestShardedReachChurnMatchesSerial exercises delete/re-derive churn over a
// CYCLIC recursive program (derivations support each other around cycles —
// the hardest case for exact counting retraction) in both provenance modes.
func TestShardedReachChurnMatchesSerial(t *testing.T) {
	prog, err := Compile(ndlog.MustParse(`
r1 reach(@Y,X) :- link(@X,Y,C).
r2 reach(@Z,X) :- link(@Y,Z,C), reach(@Y,X).
`))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		executorEquivalence(t, prog, ProvReference, seed, 6, true)
		executorEquivalence(t, prog, ProvNone, seed, 6, true)
	}
}

// TestValueModeSwapChurnMatchesDrain re-costs a random subset of links in
// one run: each link's old tuple is deleted and its new one inserted before
// the scheduler runs, so a non-recursive derived tuple (hop, two) can lose
// its only derivation and gain another within one batched round, ending
// visible with a new payload. (A recursive one is over-deleted instead, and
// the other equivalence fences re-insert the tuple they deleted, which never
// moves a payload that way.) Value-mode states of both executors must agree,
// over one shared variable numbering.
func TestValueModeSwapChurnMatchesDrain(t *testing.T) {
	prog, err := Compile(ndlog.MustParse(`
h1 hop(@Y,X) :- link(@X,Y,C).
h2 two(@Z,X) :- link(@Y,Z,C), hop(@Y,X).
h3 three(@Z,X) :- two(@Y,X), link(@Y,Z,C).
r1 reach(@Y,X) :- link(@X,Y,C).
r2 reach(@Z,X) :- link(@Y,Z,C), reach(@Y,X).
`))
	if err != nil {
		t.Fatal(err)
	}
	const nNodes = 10
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		edges := randomLinks(nNodes, 5, rng)
		var swapped [][2]int
		for _, e := range edges {
			if rng.Intn(2) == 0 {
				swapped = append(swapped, e)
			}
		}
		both := func(do func(types.NodeID, types.Tuple), e [2]int, cost int64) {
			do(types.NodeID(e[0]), linkTup(e[0], e[1], cost))
			do(types.NodeID(e[1]), linkTup(e[1], e[0], cost))
		}
		run := func(batched bool, workers int) []*Node {
			s := newScheduler(prog, ProvValue, nNodes, workers, batched)
			var base []types.Tuple
			for _, e := range edges {
				base = append(base, linkTup(e[0], e[1], 1), linkTup(e[1], e[0], 1))
			}
			for _, e := range swapped {
				base = append(base, linkTup(e[0], e[1], 2), linkTup(e[1], e[0], 2))
			}
			for _, e := range edges {
				both(s.InsertBase, e, 1)
			}
			if err := s.Run(); err != nil {
				t.Fatalf("insert fixpoint: %v", err)
			}
			for _, e := range swapped {
				both(s.DeleteBase, e, 1)
				both(s.InsertBase, e, 2)
			}
			if err := s.Run(); err != nil {
				t.Fatalf("swap fixpoint: %v", err)
			}
			return s.Engines()
		}
		drain := run(false, 1)
		for _, workers := range []int{1, 4} {
			diffStates(t, fmt.Sprintf("seed %d batched workers=%d", seed, workers), drain, run(true, workers))
		}
	}
}

// TestShardedNodeUnderSyncTransport drives batched nodes through the
// HandleMessage path (self-driven node-local rounds, one message per ingest,
// sends delivered — and answered — in the middle of a fire phase) rather
// than the scheduler, and checks the same fixpoint.
func TestShardedNodeUnderSyncTransport(t *testing.T) {
	prog, err := Compile(apps.MinCost())
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.Ring(8, rand.New(rand.NewSource(11)))
	nNodes := topo.N
	edges, _, costs := topoScript(topo, 0)

	serial := runSerialRef(t, prog, ProvReference, nNodes, edges, nil, costs)

	tr := &refTransport{}
	nodes := make([]*Node, nNodes)
	for i := range nodes {
		nodes[i] = newNode(types.NodeID(i), prog, ProvReference, tr, true)
	}
	tr.nodes = nodes
	for _, e := range edges {
		cost := edgeCost(e, costs)
		nodes[e[0]].InsertBase(linkTup(e[0], e[1], cost))
		nodes[e[1]].InsertBase(linkTup(e[1], e[0], cost))
	}
	Settle(nodes...) // release retraction staging from improvement-driven evictions
	for _, n := range nodes {
		if n.Err != nil {
			t.Fatal(n.Err)
		}
	}
	diffStates(t, "sync transport batched", serial, nodes)
}

// TestSchedulerFixpointIndependentOfHost is the fence for "batching is a
// property of the driver": the paper's headline quantity — communication at
// fixpoint — must not depend on how many cores the host has. It builds the
// CHORD ring the way the CLI and the benchmark do and runs it on one core and
// on several; bytes, rounds and the routing state must be equal. When the
// per-node shard count doubled as the drain-vs-rounds selector and was
// resolved from GOMAXPROCS, a one-core host silently drained and this ring
// shipped 3.9× the bytes.
func TestSchedulerFixpointIndependentOfHost(t *testing.T) {
	prog, err := Compile(apps.Chord())
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.Ring(200, rand.New(rand.NewSource(42)))
	base := apps.ChordBase(topo)
	lookups := apps.ChordLookups(topo, 8, 42)
	run := func(procs int) *Scheduler {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s := NewScheduler(prog, ProvReference, topo.N, 0, 0)
		apps.BootEDB(topo, true, base, s.InsertBase)
		for _, lk := range lookups {
			s.InsertBase(lk.Loc(), lk)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	many := max(runtime.GOMAXPROCS(0), 2)
	one := run(1)
	multi := run(many)
	if one.TotalBytes == 0 || one.Node(0).TupleCount("succ") == 0 {
		t.Fatal("vacuous: the overlay did not converge")
	}
	if one.TotalBytes != multi.TotalBytes || one.Rounds != multi.Rounds {
		t.Errorf("GOMAXPROCS=1: %d bytes in %d rounds; GOMAXPROCS=%d: %d bytes in %d rounds",
			one.TotalBytes, one.Rounds, many, multi.TotalBytes, multi.Rounds)
	}
	diffStates(t, fmt.Sprintf("GOMAXPROCS=1 vs %d", many), one.Engines(), multi.Engines())
}

// TestValueModeSchedulerIndependentOfWorkers: every node names its own base
// tuples' BDD variables, so value-mode nodes share nothing and run on the
// whole worker pool; the fixpoint, payload bytes included, must not depend
// on how many workers run the node tasks or in which order they finish.
func TestValueModeSchedulerIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	topo := topology.TransitStub(topology.TransitStubParams{Domains: 1, TransitPerDom: 2,
		StubsPerTransit: 2, NodesPerStub: 6, ExtraStubEdges: 2}, rand.New(rand.NewSource(3)))
	for name, src := range map[string]*ndlog.Program{"mincost": apps.MinCost(), "pathvector": apps.PathVector()} {
		prog, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		run := func(workers int) *Scheduler {
			s := NewScheduler(prog, ProvValue, topo.N, 0, workers)
			if s.workers != workers {
				t.Fatalf("value-mode scheduler runs %d workers, asked for %d", s.workers, workers)
			}
			apps.BootEDB(topo, false, nil, s.InsertBase)
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			return s
		}
		one, four := run(1), run(4)
		if one.TotalBytes == 0 || one.Node(0).TupleCount("bestPathCost")+one.Node(0).TupleCount("bestPath") == 0 {
			t.Fatal("vacuous: nothing derived")
		}
		if d1, d4 := StateDigest(one.Engines()), StateDigest(four.Engines()); d1 != d4 {
			t.Errorf("%s: 1 worker digest %s, 4 workers %s", name, d1, d4)
			diffStates(t, "1 vs 4 workers", one.Engines(), four.Engines())
		}
		if one.TotalBytes != four.TotalBytes || one.Rounds != four.Rounds {
			t.Errorf("%s: 1 worker: %d bytes in %d rounds; 4 workers: %d bytes in %d rounds",
				name, one.TotalBytes, one.Rounds, four.TotalBytes, four.Rounds)
		}
	}
}
