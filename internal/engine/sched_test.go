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

// These tests pin the Scheduler's equivalence contract: the canonical
// fixpoint state (WriteStates) of a cluster whose nodes ingest a whole round
// of messages at a time matches that of nodes ingesting one message at a
// time over a synchronous transport (the reference) exactly, from scratch
// and under delete/re-insert churn. They run the same random topologies
// through both and diff the outcomes.

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

// runLinkScript drives an insert/churn script of links through r: every
// edge in both directions and a fixpoint, then each churn edge's retraction
// and, at even indexes, its re-insertion, and a fixpoint. A Scheduler runs
// the whole churn at once; synchronous-transport nodes settle after every
// op pair, the serial analogue of the drivers' idle-point release.
func runLinkScript(t *testing.T, r *permRun, edges, churn [][2]int, costs map[[2]int]int64) *permRun {
	t.Helper()
	both := func(e [2]int, do func(types.Tuple)) {
		cost := edgeCost(e, costs)
		do(linkTup(e[0], e[1], cost))
		do(linkTup(e[1], e[0], cost))
	}
	for _, e := range edges {
		both(e, r.insert)
	}
	r.settle(t)
	for i, e := range churn {
		both(e, r.delete)
		r.syncSettle(t)
		if i%2 == 0 {
			both(e, r.insert)
			r.syncSettle(t)
		}
	}
	r.settle(t)
	return r
}

// Settle drives the retraction protocol's release loop across nodes over a
// synchronous transport (one whose Send delivers — and cascades — before
// returning): at entry the deletion wave has globally quiesced, so staged
// work is released and run, repeatedly, until no node stages anything
// further.
func Settle(nodes ...*Node) {
	each := func(fn func(*Node) bool) bool { return anyNode(nodes, fn) }
	for ReleasePass(each, true) {
	}
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
// reference and schedulers of one and of four workers and diffs the
// outcomes. costs overrides edgeCost per (u,v) pair when non-nil.
func equivalenceOn(t *testing.T, prog *Program, mode ProvMode,
	nNodes int, edges, churn [][2]int, costs map[[2]int]int64) {
	t.Helper()
	run := func(workers int) *permRun {
		return runLinkScript(t, startPermRun(prog, mode, nNodes, workers), edges, churn, costs)
	}
	serial, a, b := run(syncTransport), run(1).sched, run(4).sched
	diffStates(t, "workers=1", serial.nodes, a.Engines())
	diffStates(t, "workers=4", serial.nodes, b.Engines())

	// Determinism across worker counts: byte accounting and round counts
	// must reproduce exactly.
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

func TestMinCostSchedulerMatchesSyncTransport(t *testing.T) {
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

func TestPathVectorSchedulerMatchesSyncTransport(t *testing.T) {
	prog, err := Compile(apps.PathVector())
	if err != nil {
		t.Fatal(err)
	}
	executorEquivalence(t, prog, ProvReference, 7, 3, true)
}

// TestReachChurnSchedulerMatchesSyncTransport exercises delete/re-derive
// churn over a CYCLIC recursive program (derivations support each other
// around cycles — the hardest case for exact counting retraction) in both
// provenance modes.
func TestReachChurnSchedulerMatchesSyncTransport(t *testing.T) {
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

// TestValueModeSwapChurnMatchesSyncTransport re-costs a random subset of
// links in one run: each link's old tuple is deleted and its new one inserted
// before the scheduler runs, so a non-recursive derived tuple (hop, two) can
// lose its only derivation and gain another within one round, ending visible
// with a new payload. (A recursive one is over-deleted instead, and the other
// equivalence fences re-insert the tuple they deleted, which never moves a
// payload that way.) The reference drives the same insert, then swap script
// through nodes over a synchronous transport, where the swap's deletes reach
// a fixpoint before its inserts begin: there the payload moves by a Delete
// and an Insert, on the Scheduler only by the fire phase's Update. Value-mode
// states must agree.
func TestValueModeSwapChurnMatchesSyncTransport(t *testing.T) {
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
		both := func(do func(types.Tuple), e [2]int, cost int64) {
			do(linkTup(e[0], e[1], cost))
			do(linkTup(e[1], e[0], cost))
		}

		ref := startPermRun(prog, ProvValue, nNodes, syncTransport)
		for _, e := range edges {
			both(ref.insert, e, 1)
		}
		ref.settle(t)
		for _, e := range swapped {
			both(ref.delete, e, 1)
		}
		ref.settle(t)
		for _, e := range swapped {
			both(ref.insert, e, 2)
		}
		ref.settle(t)

		for _, workers := range []int{1, 4} {
			s := startPermRun(prog, ProvValue, nNodes, workers)
			for _, e := range edges {
				both(s.insert, e, 1)
			}
			s.settle(t)
			for _, e := range swapped {
				both(s.delete, e, 1)
				both(s.insert, e, 2)
			}
			s.settle(t)
			diffStates(t, fmt.Sprintf("seed %d workers=%d", seed, workers), ref.nodes, s.nodes)
		}
	}
}

// TestSyncTransportMatchesScheduler drives nodes through the HandleMessage
// path (node-local rounds of one message per ingest, sends delivered — and
// answered — in the middle of a fire phase) and checks them against the
// fixpoint the Scheduler reaches on the same ring.
func TestSyncTransportMatchesScheduler(t *testing.T) {
	prog, err := Compile(apps.MinCost())
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.Ring(8, rand.New(rand.NewSource(11)))
	edges, _, costs := topoScript(topo, 0)

	sched := runLinkScript(t, startPermRun(prog, ProvReference, topo.N, 1), edges, nil, costs)
	nodes := runLinkScript(t, startPermRun(prog, ProvReference, topo.N, syncTransport), edges, nil, costs)
	diffStates(t, "sync transport", sched.nodes, nodes.nodes)
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

// TestScratchFreeListFollowsWorkers: the nodes of a cluster share their
// program's round scratches, so after a Scheduler run the program's free
// list holds at least one and at most one per worker, and no node holds one.
// A node that kept its scratch, or a scratch borrowed per node, breaks it.
func TestScratchFreeListFollowsWorkers(t *testing.T) {
	topo := topology.Ring(64, rand.New(rand.NewSource(3)))
	for _, workers := range []int{1, 4} {
		prog, err := Compile(apps.Chord())
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(prog, ProvReference, topo.N, 0, workers)
		apps.BootEDB(topo, true, apps.ChordBase(topo), s.InsertBase)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if err := CheckQuiescent(s.nodes); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if got := len(prog.scratches.free); got == 0 || got > workers {
			t.Fatalf("%d workers: the free list holds %d scratches, want 1 to %d", workers, got, workers)
		}
	}
}
