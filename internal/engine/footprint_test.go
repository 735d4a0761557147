package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/topology"
	"repro/internal/types"
)

// liveHeap reads the bytes the heap retains after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestNodeFootprintFollowsState fences a node's memory against its state: a
// converged CHORD node stores about twenty tuples, so what a cluster retains
// per node must stay under twenty kilobytes, whatever the chunk caps that serve
// 10,000-tuple nodes are. The cluster is built the way the standing
// benchmark's chord-sharded workload builds its 1000 nodes (reference
// provenance, base tuples, then a lookup batch). With fixed 256-slot chunks
// opened per relation, and a node's state split across two partitions, this
// read ≈ 650 KB per node; with arenas that grow from 8 slots ≈ 65 KB, with
// one evaluation state per node ≈ 40 KB, with hash-keyed rows ≈ 36 KB, with
// each stored tuple as its own provenance vertex ≈ 32 KB, with ruleExec
// column tables and aggregate rows as handles ≈ 26 KB, with one entry pool
// per node instead of arenas per relation ≈ 17.3 KB, with one tuple map
// and one index map per node instead of a map per relation and per index
// ≈ 13.7 KB, with a relation's counts in the pool and every rule's
// aggregate groups in one map ≈ 13.1 KB, with the round scratch borrowed
// from the program while a node runs and the join tallies off unless asked
// for ≈ 11.0 KB, with ruleExec inputs named by 4-byte vertex handles and
// the store's digest maps turned into position indexes ≈ 10.0 KB, and with
// one ruleExec table per store instead of one per rule and the aggregate
// groups carved from a chunk of the two a CHORD node can hold ≈ 8.7 KB, and
// with the tuple map and the group map turned into open-addressed tables of
// pointers ≈ 8.1 KB, and with the index map turned into a third such table,
// of buckets, ≈ 8.0 KB.
func TestNodeFootprintFollowsState(t *testing.T) {
	const (
		nodes      = 300
		maxPerNode = 8300
	)
	topo := topology.Ring(nodes, rand.New(rand.NewSource(1)))
	base := apps.ChordBase(topo)
	lookups := apps.ChordLookups(topo, 32, 2)
	prog, err := Compile(apps.Chord())
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
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
	after := liveHeap()
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
	t.Logf("%d nodes, %d tuples: %d B retained per node", nodes, tuples, perNode)
	if perNode > maxPerNode {
		t.Fatalf("a converged CHORD node retains %d B (%d tuples per node); want ≤ %d B — an arena or a constructor is sized for the largest node again",
			perNode, tuples/nodes, maxPerNode)
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
// header per rule execution), ≈ 499 B once an aggregate row became a
// handle to its input entry (no tuple copy per row or winner copy per
// group), ≈ 454 B once a node's relations shared one entry pool and its
// head arguments came from 64-value chunks, ≈ 428 B after further trims,
// ≈ 375 B once a ruleExec row named its inputs by 4-byte vertex handle
// and the store's VID and RID maps became open-addressed tables of 4-byte
// positions, ≈ 361 B once the node's tuple and group maps became such
// tables too, and ≈ 360 B once its index map did.
func TestMinCostBytesPerDelta(t *testing.T) {
	const (
		nodes       = 100
		wantDeltas  = 45292
		maxPerDelta = 375
	)
	topo := topology.TransitStubN(nodes, rand.New(rand.NewSource(1)))
	prog, err := Compile(apps.MinCost())
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	s := NewScheduler(prog, ProvReference, topo.N, 0, 0)
	apps.BootEDB(topo, false, nil, s.InsertBase)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
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

// TestRelationCostsWhatItHolds fences what a relation costs a node beyond
// its tuples. The same nodes are built twice, once from a one-rule program
// and once with extra predicates that each hold one base tuple (gated by an
// empty relation, so they derive nothing); the difference per extra
// predicate is one relation holding one tuple: its entry, prov row and
// index bucket, its share of the node's per-rule tables and of its tuple and
// bucket tables, and whatever the relation opens for itself. With entry and
// row arenas and a key buffer per relation this read ≈ 2.1 KB, an 8-slot
// chunk of each arena opened for the one tuple; with one entry pool per node
// ≈ 0.9 KB; with the node's tuple and index maps in place of a map per
// relation and per index 359 B; with no Relation struct, its counts in the
// pool, 331 B; with the tuple map an open-addressed table 277 B; and with
// the index map one too 299 B: the relation's one bucket is a 48-byte object
// of its own, where a Go map kept its one entry in the map's slot.
func TestRelationCostsWhatItHolds(t *testing.T) {
	const (
		nodes          = 200
		extra          = 16
		maxPerRelation = 343
	)
	preds := make([]string, extra)
	for j := range preds {
		preds[j] = fmt.Sprintf("p%d", j+1)
	}
	src := func(k int) string {
		var b strings.Builder
		b.WriteString("r0 out(@X, Y) :- in(@X, Y).\n")
		for j, p := range preds[:k] {
			fmt.Fprintf(&b, "r%d out(@X, Y) :- %s(@X, Y), gate(@X, Y).\n", j+1, p)
		}
		return b.String()
	}
	perNode := func(k int) uint64 {
		prog := mustCompile(t, src(k))
		before := liveHeap()
		ns := make([]*Node, nodes)
		for i := range ns {
			n := NewNode(types.NodeID(i), prog, ProvReference, nil)
			n.InsertBase(types.NewTuple("in", types.Node(types.NodeID(i)), types.Int(0)))
			for j, p := range preds[:k] {
				n.InsertBase(types.NewTuple(p, types.Node(types.NodeID(i)), types.Int(int64(j))))
				if n.TupleCount(p) != 1 {
					t.Fatalf("vacuous: node %d holds no %s tuple", i, p)
				}
			}
			if n.Err != nil {
				t.Fatal(n.Err)
			}
			if n.TupleCount("out") != 1 {
				t.Fatalf("vacuous: node %d holds %d out tuples, want 1", i, n.TupleCount("out"))
			}
			ns[i] = n
		}
		after := liveHeap()
		runtime.KeepAlive(ns)
		return (after - before) / nodes
	}
	base, more := perNode(0), perNode(extra)
	perRelation := (more - base) / extra
	t.Logf("%d B per node, %d B with %d more single-tuple relations: %d B per relation", base, more, extra, perRelation)
	if perRelation > maxPerRelation {
		t.Fatalf("a relation holding one tuple costs its node %d B; want ≤ %d B — a relation opens memory of its own again", perRelation, maxPerRelation)
	}
}

// TestAggGroupBound: Compile bounds the aggregate groups a node can hold
// only when every aggregate rule groups by its body atom's location alone,
// one group per node each — CHORD's c2 and c6 — and a converged CHORD node
// then carves its groups and their first rows from one chunk of exactly
// that many slots. A program with any other aggregate keeps the default
// chunk cap.
func TestAggGroupBound(t *testing.T) {
	for _, c := range []struct {
		name string
		prog *ndlog.Program
		want int
	}{
		{"chord", apps.Chord(), 2},
		{"mincost", apps.MinCost(), 0},
		{"pathvector", apps.PathVector(), 0},
		{"policy", apps.Policy(), 0},
		{"grouped by more than the location", ndlog.MustParse(`r1 agg(@N,X,min<C>) :- in(@N,X,C).`), 0},
	} {
		prog, err := Compile(c.prog)
		if err != nil {
			t.Fatal(err)
		}
		if prog.groupBound != c.want {
			t.Errorf("%s: Compile bounds a node's aggregate groups at %d, want %d", c.name, prog.groupBound, c.want)
		}
	}

	topo := topology.Ring(16, rand.New(rand.NewSource(1)))
	prog, err := Compile(apps.Chord())
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(prog, ProvReference, topo.N, 0, 0)
	for n, tuples := range apps.ChordBase(topo) {
		for _, tup := range tuples {
			s.InsertBase(n, tup)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range s.NumNodes() {
		n := s.Node(i)
		// The arenas' open chunk: len is what is carved, cap the chunk.
		groups := reflect.ValueOf(n.aggGroupArena).FieldByName("chunk")
		rows := reflect.ValueOf(n.aggRowArena).FieldByName("chunk")
		if n.pool.tabs.groups.Len() != 2 || groups.Len() != 2 || groups.Cap() != 2 || rows.Len() != 2 || rows.Cap() != 2 {
			t.Fatalf("node %d holds %d groups, carved from a %d/%d chunk, their rows from a %d/%d chunk; want 2 in 2/2 each",
				i, n.pool.tabs.groups.Len(), groups.Len(), groups.Cap(), rows.Len(), rows.Cap())
		}
	}
}

// TestEntrySize fences the structs state pays for per tuple, per aggregate
// group, per node and per deferred firing: a relation entry, its embedded
// provenance vertex included, stays at 104 bytes, so its flags (the
// aggregate pin and the tombstone mark among them) live in padding; an
// aggregate group stays at 104 bytes, its rule number in the padding after
// its flags and no chain pointer, since a table finds it; a node stays in the 512-byte size class, holding no round
// scratch of its own; a fire-list item stays at 32 bytes, carrying no copy
// of a stored entry's tuple; and a node's provenance store stays at 240
// bytes, reading its program's rule labels and row width through one
// pointer instead of holding copies.
func TestEntrySize(t *testing.T) {
	for _, c := range []struct {
		name     string
		size, at uintptr
	}{
		{"entry", unsafe.Sizeof(entry{}), 104},
		{"aggGroup", unsafe.Sizeof(aggGroup{}), 104},
		{"Node", unsafe.Sizeof(Node{}), 512},
		{"fireItem", unsafe.Sizeof(fireItem{}), 32},
		{"provenance.Store", unsafe.Sizeof(provenance.Store{}), 240},
	} {
		if c.size > c.at {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want ≤ %d", c.name, c.size, c.at)
		}
	}
}
