package engine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/types"
)

// These tests lock in the hot-path guarantees of the PSN evaluator: O(1)
// relation cardinality, allocation-free join probes, cached tuple keys and
// VIDs, and a steady-state delta pipeline that reuses its buffers. They are
// regression fences for the numbers recorded in PERFORMANCE.md — if one of
// them starts failing, a change has reintroduced per-delta allocation or
// re-hashing on the inner loop.

// testRelation builds a standalone relation, outside any node — its
// predicate, table 0, with an index over each position list given — and the
// entry pool that stands in for its node's.
func testRelation(name string, indexes ...[]int) (*PredInfo, *entryPool) {
	prog, info := &Program{}, &PredInfo{Name: name}
	for _, pos := range indexes {
		prog.declareIndex(info, indexID(pos), pos)
	}
	p := newEntryPool(1)
	return info, &p
}

// TestRelationLenTracksVisibility runs each input on a fresh relation and
// then recounts its visible entries and tombstones by walking the pool.
func TestRelationLenTracksVisibility(t *testing.T) {
	tup := func(i int) types.Tuple {
		return types.NewTuple("p", types.Node(types.NodeID(i)), types.Int(int64(i)))
	}
	for _, in := range []struct {
		name string
		run  func(t *testing.T, rel *PredInfo, p *entryPool)
	}{
		{"toggles", func(t *testing.T, rel *PredInfo, p *entryPool) {
			var entries []*entry
			for i := 0; i < 5; i++ {
				e := p.getOrCreate(rel, tup(i))
				e.AddRow(types.ID{byte(i)}, 0)
				p.setVisible(rel, e, true)
				entries = append(entries, e)
			}
			if p.Len(rel) != 5 {
				t.Fatalf("Len = %d, want 5", p.Len(rel))
			}
			// Redundant toggles must not skew the counter.
			p.setVisible(rel, entries[0], true)
			p.setVisible(rel, entries[1], false)
			p.setVisible(rel, entries[1], false)
			if p.Len(rel) != 4 {
				t.Fatalf("Len after hide = %d, want 4", p.Len(rel))
			}
			if got := len(p.Tuples(rel)); got != p.Len(rel) {
				t.Fatalf("Len = %d but Tuples() returned %d", p.Len(rel), got)
			}
			for _, e := range entries[1:] {
				p.setVisible(rel, e, false)
			}
			if p.Len(rel) != 1 {
				t.Fatalf("Len after hiding rest = %d, want 1", p.Len(rel))
			}
		}},
		// A tuple looked up twice before its first row, and a revived
		// tombstone looked up twice, must each be uncounted at most once.
		{"lookups before the first row", func(t *testing.T, rel *PredInfo, p *entryPool) {
			e := p.getOrCreate(rel, tup(7))
			if p.getOrCreate(rel, tup(7)) != e {
				t.Fatal("a second lookup made a second entry")
			}
			e.AddRow(types.ID{7}, 0)
			p.setVisible(rel, e, true)
			e.DelRow(types.ID{7})
			p.setVisible(rel, e, false)
			if p.getOrCreate(rel, tup(7)) != e || p.getOrCreate(rel, tup(7)) != e {
				t.Fatal("reviving the tombstone made a new entry")
			}
			e.AddRow(types.ID{7}, 0)
			p.setVisible(rel, e, true)
			if p.Len(rel) != 1 {
				t.Fatalf("Len = %d, want 1", p.Len(rel))
			}
		}},
	} {
		t.Run(in.name, func(t *testing.T) {
			rel, p := testRelation("p", []int{0})
			in.run(t, rel, p)
			if err := p.checkCounts(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestJoinProbeAllocFree exercises the primitive the innermost join loop is
// built from — build the fixed-width handle key into a reusable buffer, hash
// it under the index number the plan step carries, look the bucket up in the
// node's index map — and requires it to allocate nothing on an index hit,
// whether the bucket is a list (position 1: ten entries per key) or one
// inline entry (position 2: one entry per key).
func TestJoinProbeAllocFree(t *testing.T) {
	rel, p := testRelation("link", []int{1}, []int{2})
	for i := 0; i < 100; i++ {
		e := p.getOrCreate(rel, types.NewTuple("link",
			types.Node(types.NodeID(i/10)), types.Node(types.NodeID(i%10)), types.Int(int64(i))))
		e.AddRow(types.ID{byte(i)}, 0)
		p.setVisible(rel, e, true)
	}
	byPeer, byCost := rel.indexes[0].num, rel.indexes[1].num
	peer, cost := types.Node(3), types.Int(7)
	var key []byte
	var one [1]*entry
	hits := [2]int{}
	key = peer.AppendKey(key[:0]) // warm the buffer
	allocs := testing.AllocsPerRun(200, func() {
		key = peer.AppendKey(key[:0])
		hits[0] += len(p.lookup(hashKey(byPeer, key), one[:0]))
		key = cost.AppendKey(key[:0])
		hits[1] += len(p.lookup(hashKey(byCost, key), one[:0]))
	})
	if hits[0] != 10*hits[1] || hits[1] == 0 {
		t.Fatalf("probes returned %d and %d candidates, want ten per list probe and one per inline probe", hits[0], hits[1])
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
	rel, p := testRelation("p")
	tu := types.NewTuple("p", types.Node(1), types.Str("payload"), types.Int(7))
	e := p.getOrCreate(rel, tu)

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
		if p.get(rel, tu) != e {
			t.Fatal("get lost the entry")
		}
	})
	if allocs != 0 {
		t.Errorf("relation get allocated %.2f objects per run, want 0", allocs)
	}
}

// TestSteadyStateFiringAllocs drives the full pipeline — event delta, join
// probe against a stored relation, head emission, local routing, a round —
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

// TestAggregateFiringAllocs fences the aggregate path: steady-state
// insert/delete cycles through a MIN rule — of a row that never wins (the
// fast path: the output does not move) and of a row that takes over the group
// and gives it back (retract, re-emit, rescan) — must stay at or under one
// allocation per cycle. A group's rows are entry handles that reuse their
// slice's capacity, relation entries recycle through their tombstones, and
// emitted outputs come from the arena.
func TestAggregateFiringAllocs(t *testing.T) {
	prog, err := Compile(ndlog.MustParse(`b1 best(@X,min<C,Y>) :- item(@X,Y,C).`))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		tup  types.Tuple
	}{{"loser", item("z", 9)}, {"winner", item("w", 1)}} {
		n := NewNode(0, prog, ProvReference, &refTransport{})
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
		t.Logf("%s: %.2f allocs per cycle", row.name, allocs)
		if row.name == "winner" && n.RulesFired() == fired {
			t.Fatalf("%s: the winner never took over the group", row.name)
		}
		if allocs > 1 {
			t.Errorf("%s: aggregate insert/delete cycle allocated %.2f objects, want ≤ 1",
				row.name, allocs)
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

// TestIndexChurnAllocFree fences index maintenance: indexing an entry under
// a string-valued key once copied the key bytes on every first sight. The
// node's index map stores only a 64-bit hash, keeps a one-entry bucket
// inline and recycles the lists of larger ones, so steady-state visibility
// churn — hide and unindex (as a round's end does), reindex on show, string
// keys included — must not allocate at all. The second half drives one key
// through every bucket transition, 0 → 1 → 2 → 3 → 2 → 1 → 0 → 1 entries:
// candidates must come back in the order of a list kept by append and
// swap-remove, which is the order joins enumerate and emit in.
func TestIndexChurnAllocFree(t *testing.T) {
	rel, p := testRelation("p", []int{1}, []int{1, 2})
	var entries []*entry
	for i := 0; i < 64; i++ {
		e := p.getOrCreate(rel, types.NewTuple("p", types.Node(types.NodeID(i)),
			types.Str(fmt.Sprintf("key-%d", i%8)), types.Int(int64(i%4))))
		e.AddRow(types.ID{byte(i)}, 0)
		p.setVisible(rel, e, true)
		entries = append(entries, e)
	}
	churn := func() {
		for _, e := range entries {
			p.setVisible(rel, e, false)
			p.unindex(rel, e)
		}
		for _, e := range entries {
			p.setVisible(rel, e, true)
		}
	}
	churn() // warm one full cycle so bucket boxes land on the free list
	allocs := testing.AllocsPerRun(100, churn)
	if p.Len(rel) != len(entries) {
		t.Fatalf("Len = %d after churn, want %d", p.Len(rel), len(entries))
	}
	if allocs != 0 {
		t.Errorf("index churn allocated %.2f objects per cycle, want 0", allocs)
	}

	rel, p = testRelation("q", []int{1})
	es := make([]*entry, 3)
	for i := range es {
		es[i] = p.getOrCreate(rel, types.NewTuple("q", types.Node(types.NodeID(i)), types.Str("k")))
		es[i].AddRow(types.ZeroID, 0)
	}
	h := p.indexHash(&rel.indexes[0], es[0].Tuple)
	ref := make([]*entry, 0, len(es))
	var one [1]*entry
	step := func(e *entry, show bool) {
		if show {
			p.setVisible(rel, e, true)
			ref = append(ref, e)
		} else {
			p.setVisible(rel, e, false)
			p.unindex(rel, e)
			i := slices.Index(ref, e)
			ref[i] = ref[len(ref)-1]
			ref = ref[:len(ref)-1]
		}
		if got := p.lookup(h, one[:0]); !slices.Equal(got, ref) {
			t.Fatalf("bucket holds %v, want %v", entryTuples(got), entryTuples(ref))
		}
	}
	a, b, c := es[0], es[1], es[2]
	cycle := func() {
		step(a, true)  // 1, inline
		step(b, true)  // 2, a list
		step(c, true)  // 3
		step(a, false) // 2: c takes a's place
		step(c, false) // 1: b goes back inline
		step(b, false) // 0
		step(a, true)  // 1
		step(a, false) // 0 again, for the next cycle
	}
	cycle() // warm the map and the list free list
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("bucket transitions allocated %.2f objects per cycle, want 0", allocs)
	}
}

func entryTuples(es []*entry) []types.Tuple {
	out := make([]types.Tuple, len(es))
	for i, e := range es {
		out[i] = e.Tuple
	}
	return out
}

// TestSweepSparesRetractingEntry: a retraction never sweeps. Hiding every
// entry through setVisible(e, false) reclaims nothing and leaves each entry's
// fields intact — the round's fire phase still reads their tuples, payloads
// and cached VIDs — and the end of the round (sweepDue, sweep) then reclaims
// every tombstone.
func TestSweepSparesRetractingEntry(t *testing.T) {
	rel, p := testRelation("p")
	tup := func(i int) types.Tuple { return types.NewTuple("p", types.Node(0), types.Int(int64(i))) }
	var entries []*entry
	const n = 300
	for i := 0; i < n; i++ {
		e := p.getOrCreate(rel, tup(i))
		e.AddRow(types.ID{byte(i), byte(i >> 8)}, 0)
		p.setVisible(rel, e, true)
		entries = append(entries, e)
	}
	for _, e := range entries {
		e.DelRow(e.Rows[0].RID)
		p.setVisible(rel, e, false)
	}
	if got := len(p.free); got != 0 {
		t.Fatalf("retraction swept %d entries before the end of the round", got)
	}
	for i, e := range entries {
		if !e.Tuple.Equal(tup(i)) {
			t.Fatalf("entry %d holds %v before the end of the round, want %v", i, e.Tuple, tup(i))
		}
	}
	if !p.sweepDue(rel) {
		t.Fatal("vacuous: the sweep threshold is not reached; threshold assumptions stale")
	}
	p.sweep(rel, provenance.NewStore(0, &provenance.Rules{}))
	if got := len(p.free); got != n {
		t.Fatalf("end-of-round sweep reclaimed %d of %d tombstones", got, n)
	}
	if p.Len(rel) != 0 {
		t.Fatalf("Len = %d after full retraction, want 0", p.Len(rel))
	}
	if err := p.checkCounts(); err != nil {
		t.Fatal(err)
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
