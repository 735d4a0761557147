package engine

import (
	"math/rand"
	"runtime"
	"testing"

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
// read ≈ 650 KB per node; with arenas that grow from 8 slots ≈ 65 KB, and
// with one evaluation state per node ≈ 40 KB.
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
