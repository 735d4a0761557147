package engine

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/topology"
	"repro/internal/types"
)

// TestNodeFootprintFollowsState fences a node's memory against its state: a
// converged CHORD node stores about twenty tuples, so what a cluster retains
// per node must be tens of kilobytes, whatever the chunk caps that serve
// 10,000-tuple nodes are. The cluster is built the way the standing
// benchmark's chord-sharded workload builds its 1000 nodes (reference
// provenance, base tuples, then a lookup batch). With fixed 256-slot chunks
// opened per relation, and a node's state split across two partitions, this
// read ≈ 650 KB per node; with arenas that grow from 8 slots ≈ 65 KB, with
// one evaluation state per node ≈ 40 KB, with hash-keyed rows ≈ 36 KB, and
// with each stored tuple as its own provenance vertex ≈ 32 KB.
func TestNodeFootprintFollowsState(t *testing.T) {
	const (
		nodes      = 300
		maxPerNode = 100 << 10
	)
	topo := topology.Ring(nodes, rand.New(rand.NewSource(1)))
	base := apps.ChordBase(topo)
	lookups := apps.ChordLookups(topo, 32, 2)
	prog, err := Compile(apps.Chord())
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	s := NewScheduler(prog, ProvReference, topo.N, 0, 0)
	for n := 0; n < topo.N; n++ {
		for _, tup := range base[types.NodeID(n)] {
			s.InsertBase(types.NodeID(n), tup)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, lk := range lookups {
		s.InsertBase(lk.Loc(), lk)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	after := heap()
	var tuples int
	for i := 0; i < s.NumNodes(); i++ {
		for _, p := range prog.Preds() {
			tuples += s.Node(i).TupleCount(p.Name)
		}
	}
	runtime.KeepAlive(s)
	if tuples < 10*nodes {
		t.Fatalf("vacuous: %d tuples on %d nodes — the overlay did not converge", tuples, nodes)
	}
	perNode := (after - before) / nodes
	t.Logf("%d nodes, %d tuples: %d KB retained per node", nodes, tuples, perNode>>10)
	if perNode > maxPerNode {
		t.Fatalf("a converged CHORD node retains %d KB (%d tuples per node); want ≤ %d KB — an arena or a constructor is sized for the largest node again",
			perNode>>10, tuples/nodes, maxPerNode>>10)
	}
}

// TestMinCostBytesPerDelta fences what a derivation retains. MINCOST's state
// is quadratic in the network size, so the paper's Fig 6 sweep reaches as far
// as the bytes each delta leaves behind allow: the relation entry, the
// aggregate row, and the prov and ruleExec rows of reference-mode provenance.
// A converged 100-node transit-stub cluster on the Scheduler processes 45,292
// deltas. Per delta this read ≈ 990 B with string-keyed relation entries,
// map-per-group aggregates, ID-keyed provenance rows and a VID copy in every
// prov row, ≈ 795 B once all four were hash-keyed or dropped, ≈ 632 B once
// a stored tuple became its own provenance vertex (no second copy of the
// tuple, its VID and its rows in the store), ≈ 578 B once ruleExec rows
// became pointer-free column tables (no row struct, rule string or slice
// header per rule execution), and ≈ 499 B once an aggregate row became a
// handle to its input entry (no tuple copy per row or winner copy per
// group).
func TestMinCostBytesPerDelta(t *testing.T) {
	const (
		nodes       = 100
		wantDeltas  = 45292
		maxPerDelta = 525
	)
	topo := topology.TransitStubN(nodes, rand.New(rand.NewSource(1)))
	prog, err := Compile(apps.MinCost())
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	s := NewScheduler(prog, ProvReference, topo.N, 0, 0)
	apps.BootEDB(topo, false, nil, s.InsertBase)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	after := heap()
	var deltas int64
	for _, n := range s.Engines() {
		deltas += n.DeltasProcessed()
	}
	runtime.KeepAlive(s)
	if deltas != wantDeltas {
		t.Fatalf("%d deltas, want %d: the workload changed, so the bound means something else", deltas, wantDeltas)
	}
	perDelta := (after - before) / uint64(deltas)
	t.Logf("%d nodes, %d deltas: %.2f MB retained, %d B per delta", nodes, deltas, float64(after-before)/1e6, perDelta)
	if perDelta > maxPerDelta {
		t.Fatalf("MINCOST retains %d B per delta; want ≤ %d B", perDelta, maxPerDelta)
	}
}

// TestEntrySize fences the per-tuple struct every derivation pays for: a
// relation entry, its embedded provenance vertex included, stays at 104
// bytes, so its flags (the aggregate pin among them) live in padding.
func TestEntrySize(t *testing.T) {
	if sz := unsafe.Sizeof(entry{}); sz > 104 {
		t.Fatalf("unsafe.Sizeof(entry{}) = %d, want ≤ 104", sz)
	}
}
