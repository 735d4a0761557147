package engine

import (
	"fmt"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/types"
)

// These tests lock in the hot-path guarantees of the PSN evaluator: O(1)
// relation cardinality, allocation-free join probes, cached tuple keys and
// VIDs, and a steady-state delta pipeline that reuses its buffers. They are
// regression fences for the numbers recorded in PERFORMANCE.md — if one of
// them starts failing, a change has reintroduced per-delta allocation or
// re-hashing on the inner loop.

func TestRelationLenTracksVisibility(t *testing.T) {
	rel := NewRelation("p")
	rel.EnsureIndex([]int{0})
	var entries []*entry
	for i := 0; i < 5; i++ {
		e := rel.getOrCreate(types.NewTuple("p", types.Node(types.NodeID(i)), types.Int(int64(i))))
		e.AddRow(types.ID{byte(i)}, 0)
		rel.setVisible(e, true)
		entries = append(entries, e)
	}
	if rel.Len() != 5 {
		t.Fatalf("Len = %d, want 5", rel.Len())
	}
	// Redundant toggles must not skew the counter.
	rel.setVisible(entries[0], true)
	rel.setVisible(entries[1], false)
	rel.setVisible(entries[1], false)
	if rel.Len() != 4 {
		t.Fatalf("Len after hide = %d, want 4", rel.Len())
	}
	if got := len(rel.Tuples()); got != rel.Len() {
		t.Fatalf("Len = %d but Tuples() returned %d", rel.Len(), got)
	}
	for _, e := range entries[1:] {
		rel.setVisible(e, false)
	}
	if rel.Len() != 1 {
		t.Fatalf("Len after hiding rest = %d, want 1", rel.Len())
	}
}

// TestJoinProbeAllocFree exercises the primitive the innermost join loop is
// built from — build the fixed-width handle key into a reusable buffer, look
// up the pre-resolved index handle — and requires it to allocate nothing on
// an index hit.
func TestJoinProbeAllocFree(t *testing.T) {
	rel := NewRelation("link")
	idx := rel.EnsureIndex([]int{1})
	for i := 0; i < 100; i++ {
		e := rel.getOrCreate(types.NewTuple("link",
			types.Node(types.NodeID(i/10)), types.Node(types.NodeID(i%10)), types.Int(int64(i))))
		e.AddRow(types.ID{byte(i)}, 0)
		rel.setVisible(e, true)
	}
	if got := rel.Index([]int{1}); got != idx {
		t.Fatal("Index did not return the EnsureIndex handle")
	}
	probe := types.Node(3)
	var key []byte
	hits := 0
	key = probe.AppendKey(key[:0]) // warm the buffer
	allocs := testing.AllocsPerRun(200, func() {
		key = probe.AppendKey(key[:0])
		hits += len(idx.lookup(key))
	})
	if hits == 0 {
		t.Fatal("probe never hit the index")
	}
	if allocs != 0 {
		t.Errorf("join probe allocated %.2f objects per run, want 0", allocs)
	}
}

// TestValueConstructionOnFiringPathAllocFree pins the interning layer's
// contribution to the firing path: re-constructing values that already exist
// in the intern tables — the steady state for strings, IDs and path lists
// under churn — allocates nothing, and neither does rebuilding an entry key
// from them in a warm buffer.
func TestValueConstructionOnFiringPathAllocFree(t *testing.T) {
	id := types.HashString("firing-path")
	elems := []types.Value{types.Node(1), types.Node(2), types.Node(3)}
	warmTuple := types.NewTuple("p", types.Node(1), types.Str("firing-path"),
		types.IDVal(id), types.List(elems...))
	var key []byte
	key = warmTuple.AppendArgsKey(key[:0])
	allocs := testing.AllocsPerRun(300, func() {
		tu := types.NewTuple("p", types.Node(1), types.Str("firing-path"),
			types.IDVal(id), types.List(elems...))
		key = tu.AppendArgsKey(key[:0])
	})
	// One allocation is the NewTuple args slice itself (variadic call);
	// value construction and keying must add nothing on top.
	if allocs > 1 {
		t.Errorf("warm value construction allocated %.2f objects per run, want ≤ 1", allocs)
	}
}

// TestTupleKeyAndVIDCached verifies that an entry encodes and hashes its
// tuple at most once: repeated canonical-key lookups and VID reads are
// allocation-free after the first.
func TestTupleKeyAndVIDCached(t *testing.T) {
	rel := NewRelation("p")
	tu := types.NewTuple("p", types.Node(1), types.Str("payload"), types.Int(7))
	e := rel.getOrCreate(tu)

	var buf []byte
	first, _ := e.VIDBuf(nil)
	if first != tu.VID() {
		t.Fatal("cached VID disagrees with Tuple.VID")
	}
	allocs := testing.AllocsPerRun(100, func() {
		var vid types.ID
		vid, buf = e.VIDBuf(buf)
		if vid != first {
			t.Fatal("cached VID changed")
		}
	})
	if allocs != 0 {
		t.Errorf("cached VID read allocated %.2f objects per run, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(100, func() {
		if rel.get(tu) != e {
			t.Fatal("get lost the entry")
		}
	})
	if allocs != 0 {
		t.Errorf("relation get allocated %.2f objects per run, want 0", allocs)
	}
}

// TestSteadyStateFiringAllocs drives the full pipeline — event delta, join
// probe against a stored relation, head emission, local routing, drain —
// and requires the steady state to stay under one allocation per firing
// (the arena amortizes head-argument storage across firings).
func TestSteadyStateFiringAllocs(t *testing.T) {
	tn := newTestNet(t, `r1 eOut(@X,C) :- eIn(@X,Y), link(@X,Y,C).`, 1, ProvNone)
	n := tn.nodes[0]
	for i := 0; i < 8; i++ {
		n.InsertBase(types.NewTuple("link", types.Node(0), types.Int(int64(i)), types.Int(int64(10+i))))
	}
	ev := types.NewTuple("eIn", types.Node(0), types.Int(3))
	for i := 0; i < 16; i++ { // warm queue, arena and key buffers
		n.InjectEvent(ev)
	}
	fired := n.RulesFired()
	allocs := testing.AllocsPerRun(300, func() {
		n.InjectEvent(ev)
	})
	tn.checkErr(t)
	if n.RulesFired() == fired {
		t.Fatal("rule did not fire")
	}
	if allocs > 1 {
		t.Errorf("steady-state firing allocated %.2f objects per run, want ≤ 1", allocs)
	}
}

// TestAggregateFiringAllocs fences the aggregate path under both executors:
// steady-state insert/delete cycles through a MIN rule — of a row that never
// wins (the fast path: the output does not move) and of a row that takes
// over the group and gives it back (retract, re-emit, rescan) — must stay at
// or under one allocation per cycle. A group's rows are entry handles that
// reuse their slice's capacity, relation entries recycle through their
// tombstones, and emitted outputs come from the arena.
func TestAggregateFiringAllocs(t *testing.T) {
	prog, err := Compile(ndlog.MustParse(`b1 best(@X,min<C,Y>) :- item(@X,Y,C).`))
	if err != nil {
		t.Fatal(err)
	}
	for _, batched := range executors {
		for _, row := range []struct {
			name string
			tup  types.Tuple
		}{{"loser", item("z", 9)}, {"winner", item("w", 1)}} {
			n := newNode(0, prog, ProvReference, &refTransport{}, batched)
			n.InsertBase(item("a", 2))
			n.InsertBase(item("b", 5))
			cycle := func() {
				n.InsertBase(row.tup)
				n.DeleteBase(row.tup)
			}
			for i := 0; i < 16; i++ { // warm arenas, row capacity, tombstones
				cycle()
			}
			fired := n.RulesFired()
			allocs := testing.AllocsPerRun(300, cycle)
			if n.Err != nil {
				t.Fatal(n.Err)
			}
			wantBest(t, n, "best(@a,2,a)")
			t.Logf("%s %s: %.2f allocs per cycle", executorName(batched), row.name, allocs)
			if row.name == "winner" && n.RulesFired() == fired {
				t.Fatalf("%s %s: the winner never took over the group", executorName(batched), row.name)
			}
			if allocs > 1 {
				t.Errorf("%s %s: aggregate insert/delete cycle allocated %.2f objects, want ≤ 1",
					executorName(batched), row.name, allocs)
			}
		}
	}
}

// TestSchedulerDeliveryAllocFree pins the zero-alloc send→deliver contract
// on the cluster Scheduler path: a steady-state event that fires a rule,
// ships the head cross-node and deposits it at the receiver must stay at or
// under one allocation end-to-end. Messages are drawn from the sender's
// pool and released by deliver once deposited; the run loop reuses its
// active-node scratch. This is the fence for the former "unpooled messages
// under the scheduler" hot spot.
func TestSchedulerDeliveryAllocFree(t *testing.T) {
	prog, err := Compile(ndlog.MustParse(`r1 at(@Y,X) :- eOut(@X,Y), peer(@X,Y).`))
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(prog, ProvNone, 2, 0, 1)
	s.InsertBase(0, types.NewTuple("peer", types.Node(0), types.Node(1)))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	ev := types.NewTuple("eOut", types.Node(0), types.Node(1))
	for i := 0; i < 16; i++ { // warm queues, pools, arenas
		s.InjectEvent(0, ev)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	sent := s.SentMsgs[0]
	allocs := testing.AllocsPerRun(300, func() {
		s.InjectEvent(0, ev)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if s.SentMsgs[0] == sent {
		t.Fatal("no message crossed the scheduler transport")
	}
	if allocs > 1 {
		t.Errorf("scheduler send→deliver allocated %.2f objects per run, want ≤ 1", allocs)
	}
}

// TestIndexChurnAllocFree is the fence for the PR 3 leftover this PR fixes:
// indexing an entry under a string-valued key used to copy the key bytes on
// every first sight. With hashed buckets the index stores only a 64-bit hash
// and recycles bucket boxes through a free list, so steady-state visibility
// churn — unindex on hide, reindex on show, string keys included — must not
// allocate at all.
func TestIndexChurnAllocFree(t *testing.T) {
	rel := NewRelation("p")
	rel.EnsureIndex([]int{1})
	rel.EnsureIndex([]int{1, 2})
	var entries []*entry
	for i := 0; i < 64; i++ {
		e := rel.getOrCreate(types.NewTuple("p", types.Node(types.NodeID(i)),
			types.Str(fmt.Sprintf("key-%d", i%8)), types.Int(int64(i%4))))
		e.AddRow(types.ID{byte(i)}, 0)
		rel.setVisible(e, true)
		entries = append(entries, e)
	}
	// Warm one full churn cycle so bucket boxes land on the free list.
	for _, e := range entries {
		rel.setVisible(e, false)
	}
	for _, e := range entries {
		rel.setVisible(e, true)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, e := range entries {
			rel.setVisible(e, false)
		}
		for _, e := range entries {
			rel.setVisible(e, true)
		}
	})
	if rel.Len() != len(entries) {
		t.Fatalf("Len = %d after churn, want %d", rel.Len(), len(entries))
	}
	if allocs != 0 {
		t.Errorf("index churn allocated %.2f objects per cycle, want 0", allocs)
	}
}

// TestSweepSparesRetractingEntry: when the tombstone sweep fires inside
// setVisible(e, false), the entry whose retraction triggered it must keep
// its fields — the caller is still mid-cascade and reads its payload and
// cached VID afterwards. All other tombstones are cleared and recycled.
func TestSweepSparesRetractingEntry(t *testing.T) {
	rel := NewRelation("p")
	var entries []*entry
	const n = 300
	for i := 0; i < n; i++ {
		e := rel.getOrCreate(types.NewTuple("p", types.Node(0), types.Int(int64(i))))
		e.AddRow(types.ID{byte(i), byte(i >> 8)}, 0)
		rel.setVisible(e, true)
		entries = append(entries, e)
	}
	// Retract everything; the sweep threshold (dead > 128 && dead >
	// 2*visible) trips mid-loop while later entries are still visible.
	swept := false
	for _, e := range entries {
		e.DelRow(e.Rows[0].RID)
		rel.setVisible(e, false)
		if e.Tuple.Pred == "" {
			t.Fatal("sweep cleared the entry whose retraction triggered it")
		}
		if !swept && len(rel.freeEntries) > 0 {
			swept = true
		}
	}
	if !swept {
		t.Fatal("sweep never triggered; threshold assumptions stale")
	}
	if rel.Len() != 0 {
		t.Fatalf("Len = %d after full retraction, want 0", rel.Len())
	}
}

// TestProcessHashesDeltaTupleOnce asserts the satellite requirement that
// Node.process computes a delta tuple's VID exactly once: the insert hashes
// it, and every later use — provenance rows, rule firing, parent edges, the
// eventual delete — reuses the entry's cached value.
func TestProcessHashesDeltaTupleOnce(t *testing.T) {
	counts := map[string]int{}
	types.SetVIDHook(func(tu types.Tuple) { counts[tu.Pred]++ })
	defer types.SetVIDHook(nil)

	tn := newTestNet(t, `r1 at(@Y,X) :- edge(@X,Y).`, 2, ProvReference)
	edge := types.NewTuple("edge", types.Node(0), types.Node(1))
	tn.nodes[0].InsertBase(edge)
	tn.checkErr(t)
	if counts["edge"] != 1 {
		t.Fatalf("edge hashed %d times during insert, want exactly 1", counts["edge"])
	}
	tn.nodes[0].DeleteBase(edge)
	tn.checkErr(t)
	if counts["edge"] != 1 {
		t.Fatalf("edge hashed %d times after insert+delete, want exactly 1 (cached)", counts["edge"])
	}
	// The derived head is hashed at the deriving node (emission) and once at
	// the receiving node's entry; the delete reuses the receiver's cache.
	if counts["at"] > 3 {
		t.Fatalf("derived head hashed %d times, want ≤ 3", counts["at"])
	}
}
