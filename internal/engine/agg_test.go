package engine

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/types"
)

// These tests pin the MIN/MAX aggregate incremental fast path under
// delete/re-derive churn. The fast path skips the full group rescan when an
// input delta provably cannot move the output (a non-winning insert, a
// non-winning delete, or removing one copy of a duplicated winner); winner
// eviction must still force the rescan and re-emit the correct next-best
// row, including the carried-value tie-break.

func bestOf(t *testing.T, n *Node) []string {
	t.Helper()
	return tuples(n, "best")
}

func wantBest(t *testing.T, n *Node, want ...string) {
	t.Helper()
	got := bestOf(t, n)
	if len(got) != len(want) {
		t.Fatalf("best = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("best = %v, want %v", got, want)
		}
	}
}

func item(y string, c int64) types.Tuple {
	return types.NewTuple("item", types.Node(0), types.Str(y), types.Int(c))
}

func TestMinAggregateWinnerEvictionRescan(t *testing.T) {
	tn := newTestNet(t, `b1 best(@X,min<C,Y>) :- item(@X,Y,C).`, 1, ProvReference)
	n := tn.nodes[0]

	// Build a group with a clear winner and several losers.
	n.InsertBase(item("w", 2))
	n.InsertBase(item("a", 5))
	n.InsertBase(item("b", 7))
	wantBest(t, n, "best(@a,2,w)")

	// Non-winning churn must not move the output (fast path: no rescan,
	// no spurious retract/re-emit pair).
	fired := n.RulesFired()
	n.InsertBase(item("c", 9))
	n.DeleteBase(item("c", 9))
	n.DeleteBase(item("b", 7))
	if n.RulesFired() != fired {
		t.Fatalf("non-winning churn fired %d aggregate emissions, want 0", n.RulesFired()-fired)
	}
	wantBest(t, n, "best(@a,2,w)")

	// Duplicate the winner: deleting one copy keeps the output (the
	// surviving derivation still wins); deleting the last copy evicts the
	// winner and must rescan to the next-best remaining row.
	n.InsertBase(item("w", 2))
	n.DeleteBase(item("w", 2))
	wantBest(t, n, "best(@a,2,w)")
	n.DeleteBase(item("w", 2))
	wantBest(t, n, "best(@a,5,a)")

	// Re-derive the evicted winner: it must dethrone the rescanned best.
	n.InsertBase(item("w", 2))
	wantBest(t, n, "best(@a,2,w)")

	// Retract everything; the output disappears.
	n.DeleteBase(item("w", 2))
	n.DeleteBase(item("a", 5))
	wantBest(t, n)
	tn.checkErr(t)

	// Provenance bookkeeping survived the churn: each emitted best row
	// recorded (and each retraction removed) its ruleExec row.
	if got := n.Store.NumRuleExec(); got != 0 {
		t.Fatalf("ruleExec rows after full retraction = %d, want 0", got)
	}
}

func TestMinAggregateEvictionTieBreak(t *testing.T) {
	tn := newTestNet(t, `b1 best(@X,min<C,Y>) :- item(@X,Y,C).`, 1, ProvNone)
	n := tn.nodes[0]

	// Two rows tie on the sort value; the carried value breaks the tie
	// deterministically (lexicographically smallest wins for MIN).
	n.InsertBase(item("z", 4))
	n.InsertBase(item("m", 4))
	n.InsertBase(item("q", 1))
	wantBest(t, n, "best(@a,1,q)")

	// Evicting the winner must rescan to the tie and resolve it by the
	// carried comparison, not map iteration order.
	n.DeleteBase(item("q", 1))
	wantBest(t, n, "best(@a,4,m)")
	n.DeleteBase(item("m", 4))
	wantBest(t, n, "best(@a,4,z)")
	tn.checkErr(t)
}

func TestMaxAggregateChurn(t *testing.T) {
	tn := newTestNet(t, `b1 best(@X,max<C,Y>) :- item(@X,Y,C).`, 1, ProvReference)
	n := tn.nodes[0]

	n.InsertBase(item("lo", 1))
	n.InsertBase(item("hi", 9))
	wantBest(t, n, "best(@a,9,hi)")

	// Deleting and re-deriving the winner across interleaved churn.
	n.DeleteBase(item("hi", 9))
	wantBest(t, n, "best(@a,1,lo)")
	n.InsertBase(item("mid", 5))
	wantBest(t, n, "best(@a,5,mid)")
	n.InsertBase(item("hi", 9))
	wantBest(t, n, "best(@a,9,hi)")
	n.DeleteBase(item("mid", 5))
	wantBest(t, n, "best(@a,9,hi)")
	tn.checkErr(t)
}

// TestMinAggregateChurnSharded drives the same winner-eviction script
// through a one-node scheduler cluster (a round nets each step's deltas
// before the group re-elects) and checks each intermediate fixpoint.
func TestMinAggregateChurnSharded(t *testing.T) {
	prog, err := Compile(ndlog.MustParse(`b1 best(@X,min<C,Y>) :- item(@X,Y,C).`))
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(prog, ProvReference, 1, 0, 0)
	step := func(want ...string) {
		t.Helper()
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, tu := range s.Node(0).Tuples("best") {
			got = append(got, tu.String())
		}
		if len(got) != len(want) {
			t.Fatalf("best = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("best = %v, want %v", got, want)
			}
		}
	}
	s.InsertBase(0, item("w", 2))
	s.InsertBase(0, item("a", 5))
	step("best(@a,2,w)")
	s.InsertBase(0, item("w", 2)) // duplicate derivation
	s.DeleteBase(0, item("w", 2))
	step("best(@a,2,w)")
	s.DeleteBase(0, item("w", 2)) // evict winner: rescan to next best
	step("best(@a,5,a)")
	s.InsertBase(0, item("w", 2)) // re-derive: dethrones the rescan result
	step("best(@a,2,w)")
	s.DeleteBase(0, item("w", 2))
	s.DeleteBase(0, item("a", 5))
	step()
	if got := s.Node(0).Store.NumRuleExec(); got != 0 {
		t.Fatalf("ruleExec rows after full retraction = %d, want 0", got)
	}
}

// aggInput resolves the one input of an aggregate head's derivation in a
// reference-mode store: the head must have exactly one prov row, whose
// ruleExec row names one VID that resolves to a tuple visible on n.
func aggInput(n *Node, head types.Tuple) (types.Tuple, error) {
	rows := n.Store.Derivations(head.VID())
	if len(rows) != 1 {
		return types.Tuple{}, fmt.Errorf("%s has %d derivations, want 1", head, len(rows))
	}
	re, ok := n.Store.RuleExecOf(rows[0].RID)
	if !ok || len(re.VIDList) != 1 {
		return types.Tuple{}, fmt.Errorf("%s: ruleExec row %v missing or not single-input", head, rows[0].RID)
	}
	in, ok := n.Store.TupleOf(re.VIDList[0])
	if !ok {
		return types.Tuple{}, fmt.Errorf("%s: ruleExec input %v has no vertex", head, re.VIDList[0])
	}
	if e := n.lookup(in.Pred).get(&n.pool, in); e == nil || !e.visible {
		return types.Tuple{}, fmt.Errorf("%s: ruleExec input %s is not visible", head, in)
	}
	return in, nil
}

// TestAggregateDerivationFollowsLiveWinner: inputs that tie in aggregate
// order each hold a row, so deleting the one a head's derivation names moves
// the derivation to a tied survivor instead of leaving a ruleExec row (or, in
// value mode, a payload) that names a deleted tuple. After every step, the
// head's one derivation reads a live input attaining its value — in value
// mode, the head's payload is such an input's.
func TestAggregateDerivationFollowsLiveWinner(t *testing.T) {
	prog := mustCompile(t, `b1 best(@X,min<C>) :- it(@X,Z,C).`)
	it := func(z, c int64) types.Tuple {
		return types.NewTuple("it", types.Node(0), types.Int(z), types.Int(c))
	}
	steps := []struct {
		ins bool
		tup types.Tuple
	}{
		{true, it(1, 5)}, {true, it(2, 5)}, // tie: both hold rows
		{false, it(1, 5)}, // delete the traced winner
		{true, it(0, 5)},  // a tied input first in tie order
		{false, it(2, 5)}, {true, it(3, 4)}, {false, it(3, 4)},
		{false, it(0, 5)},
	}
	for _, mode := range []ProvMode{ProvReference, ProvValue} {
		s := NewScheduler(prog, mode, 1, 0, 0)
		n := s.Node(0)
		live := map[string]types.Tuple{}
		for step, st := range steps {
			if st.ins {
				s.InsertBase(0, st.tup)
				live[st.tup.String()] = st.tup
			} else {
				s.DeleteBase(0, st.tup)
				delete(live, st.tup.String())
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			heads := n.Tuples("best")
			if len(heads) != min(len(live), 1) {
				t.Fatalf("%s step %d: best = %v with %d live inputs", mode, step, heads, len(live))
			}
			if len(heads) == 0 {
				continue
			}
			head := heads[0]
			attains := func(in types.Tuple) bool {
				_, ok := live[in.String()]
				return ok && in.Args[2] == head.Args[1]
			}
			if mode == ProvReference {
				in, err := aggInput(n, head)
				if err != nil {
					t.Fatalf("%s step %d: %v", mode, step, err)
				}
				if !attains(in) {
					t.Fatalf("%s step %d: %s derives from %s, which does not attain it", mode, step, head, in)
				}
				continue
			}
			got, _ := n.PayloadOf(head)
			follows := false
			for _, in := range live {
				if p, ok := n.PayloadOf(in); ok && p == got && attains(in) {
					follows = true
				}
			}
			if !follows {
				t.Fatalf("%s step %d: the payload of %s is no live winner's", mode, step, head)
			}
		}
	}
}

// TestAggregateMatchesRecompute runs seeded random insert/delete schedules
// through one rule of each aggregate function and after every step
// compares the visible heads with a naive recomputation over the live body
// tuples. The value ranges are small on purpose: rows
// tie on the sort value (the carried value breaks the tie), distinct body
// tuples tie in aggregate order (Z is neither grouped nor carried), base
// tuples are inserted more than once, and deletes hit absent tuples. A
// provenance leg checks that each MIN/MAX head's one derivation reads a
// visible input of its group that attains the head's (C, Y).
func TestAggregateMatchesRecompute(t *testing.T) {
	prog := mustCompile(t, `
a1 lo(@X,G,min<C,Y>) :- in(@X,G,Z,Y,C).
a2 hi(@X,G,max<C,Y>) :- in(@X,G,Z,Y,C).
a3 cnt(@X,G,COUNT<*>) :- in(@X,G,Z,Y,C).
a4 lst(@X,G,AGGLIST<Y>) :- in(@X,G,Z,Y,C).
`)
	type row struct {
		g, z int64
		y    string
		c    int64
	}
	tup := func(r row) types.Tuple {
		return types.NewTuple("in", types.Node(0), types.Int(r.g), types.Int(r.z), types.Str(r.y), types.Int(r.c))
	}
	// want recomputes every head from the live multiset of base tuples.
	want := func(live map[row]int) []string {
		groups := map[int64][]row{}
		for r, k := range live {
			if k > 0 {
				groups[r.g] = append(groups[r.g], r)
			}
		}
		var out []string
		for g, rows := range groups {
			head := func(pred string, v ...types.Value) {
				out = append(out, types.NewTuple(pred, append([]types.Value{types.Node(0), types.Int(g)}, v...)...).String())
			}
			lo, hi := rows[0], rows[0]
			ys := map[string]bool{}
			for _, r := range rows {
				if r.c < lo.c || r.c == lo.c && r.y < lo.y {
					lo = r
				}
				if r.c > hi.c || r.c == hi.c && r.y < hi.y {
					hi = r
				}
				ys[r.y] = true
			}
			head("lo", types.Int(lo.c), types.Str(lo.y))
			head("hi", types.Int(hi.c), types.Str(hi.y))
			head("cnt", types.Int(int64(len(rows))))
			var list []types.Value
			for _, y := range slices.Sorted(maps.Keys(ys)) {
				list = append(list, types.List(types.Str(y)))
			}
			head("lst", types.List(list...))
		}
		slices.Sort(out)
		return out
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(prog, ProvReference, 1, 0, 0)
		live := map[row]int{}
		for step := 0; step < 150; step++ {
			// Batched rounds net several deltas before a group re-elects.
			for op := rng.Intn(3); op >= 0; op-- {
				r := row{g: rng.Int63n(2), z: rng.Int63n(2), y: string(rune('a' + rng.Intn(3))), c: rng.Int63n(3)}
				if rng.Intn(5) < 3 {
					s.InsertBase(0, tup(r))
					live[r]++
				} else {
					s.DeleteBase(0, tup(r))
					if live[r] > 0 {
						live[r]--
					}
				}
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, pred := range []string{"lo", "hi", "cnt", "lst"} {
				got = append(got, tuples(s.Node(0), pred)...)
			}
			slices.Sort(got)
			if w := want(live); !slices.Equal(got, w) {
				t.Fatalf("seed %d step %d:\n got %v\nwant %v", seed, step, got, w)
			}
			for _, pred := range []string{"lo", "hi"} {
				for _, head := range s.Node(0).Tuples(pred) {
					in, err := aggInput(s.Node(0), head)
					if err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					// in(@X,G,Z,Y,C) attains head(@X,G,C,Y).
					if in.Args[1] != head.Args[1] || in.Args[4] != head.Args[2] || in.Args[3] != head.Args[3] {
						t.Fatalf("seed %d step %d: %s derives from %s, which does not attain it",
							seed, step, head, in)
					}
				}
			}
		}
	}
}

// TestAggregateInputPinnedAcrossSweep fences the executor's pin on
// queued aggregate inputs (entry.aggQueued). One round deletes every `in`
// tuple: its fire phase queues an aggregate Delete per entry for the next
// round's apply step, and its tombstones trip the sweep at endRound, in
// between. The same round derives fresh `in` tuples, whose inserts run first
// in the next apply step and would take any swept entry off the free list —
// so an unpinned entry would hold another tuple by the time its Delete
// finds it in the group's rows.
func TestAggregateInputPinnedAcrossSweep(t *testing.T) {
	prog := mustCompile(t, `
a1 lo(@X,min<C,G>) :- in(@X,G,C).
r1 in(@X,G,C) :- trig(@X), src(@X,G,C).
`)
	n := NewNode(0, prog, ProvReference, &refTransport{})
	tup := func(pred string, g, c int64) types.Tuple {
		return types.NewTuple(pred, types.Node(0), types.Int(g), types.Int(c))
	}
	trig := types.NewTuple("trig", types.Node(0))
	a1Rows := func() int {
		c := 0
		n.Store.ForEachRuleExec(func(re provenance.RuleExecEntry) {
			if re.Rule == "a1" {
				c++
			}
		})
		return c
	}
	const old, fresh = 200, 50
	for g := int64(0); g < old; g++ {
		n.InsertBase(tup("in", g, 100+g))
	}
	for g := int64(0); g < fresh; g++ {
		n.InsertBase(tup("src", 1000+g, 500+g))
	}
	if got := tuples(n, "lo"); len(got) != 1 || got[0] != "lo(@a,100,0)" {
		t.Fatalf("lo = %v before the churn", got)
	}

	for g := int64(0); g < old; g++ {
		n.deposit(n.baseDelta(tup("in", g, 100+g), Delete))
	}
	n.deposit(n.baseDelta(trig, Insert))
	rel := n.lookup("in")
	for round := 0; n.pending(); round++ {
		n.curRound++
		n.applyPhase()
		n.firePhase()
		if round == 0 && (len(n.aggIn) != old || !rel.sweepDue() || n.qhead == len(n.queue)) {
			t.Fatalf("vacuous: %d queued aggregate updates, sweep due %v, %d derived deltas pending",
				len(n.aggIn), rel.sweepDue(), len(n.queue)-n.qhead)
		}
		n.endRound()
	}
	if n.Err != nil {
		t.Fatal(n.Err)
	}
	heads := n.Tuples("lo")
	if len(heads) != 1 || heads[0].String() != "lo(@a,500,1000)" {
		t.Fatalf("lo = %v after the churn, want [lo(@a,500,1000)]", heads)
	}
	if in, err := aggInput(n, heads[0]); err != nil || !in.Equal(tup("in", 1000, 500)) {
		t.Fatalf("lo derives from %v (%v), want in(@a,1000,500)", in, err)
	}
	if c := a1Rows(); c != 1 {
		t.Fatalf("%d ruleExec rows of a1, want 1", c)
	}

	n.DeleteBase(trig)
	if got := tuples(n, "lo"); len(got) != 0 || n.AggGroupCount() != 0 || a1Rows() != 0 {
		t.Fatalf("after full retraction: lo = %v, %d live groups, %d ruleExec rows of a1", got, n.AggGroupCount(), a1Rows())
	}
}

// TestRecursiveAggregateKeepsLiveTiedWinner: a recursive head keeps its live
// winner when a tied input arrives. Here the newcomer derives from the head
// itself; moving the derivation to it would retract the old one, over-delete
// the head, retract the newcomer with it and re-derive both at every
// release, so the release loop would never quiesce. Deleting the winner then
// retracts the head and everything it alone supported.
func TestRecursiveAggregateKeepsLiveTiedWinner(t *testing.T) {
	prog := mustCompile(t, `
b1 best(@X,min<C>) :- cand(@X,Z,C).
r1 cand(@X,Z,C) :- best(@X,C), alt(@X,Z).
`)
	cand := types.NewTuple("cand", types.Node(0), types.Int(9), types.Int(5))
	n := NewNode(0, prog, ProvReference, &refTransport{})
	settle := func() {
		t.Helper()
		each := func(fn func(*Node) bool) bool { return fn(n) }
		for pass := 0; ReleasePass(each, true); pass++ {
			if pass == 10 {
				t.Fatal("the release loop does not quiesce")
			}
		}
		if n.Err != nil {
			t.Fatal(n.Err)
		}
	}
	n.InsertBase(cand)
	n.InsertBase(types.NewTuple("alt", types.Node(0), types.Int(1)))
	settle()
	heads := n.Tuples("best")
	if len(heads) != 1 || heads[0].String() != "best(@a,5)" || len(tuples(n, "cand")) != 2 {
		t.Fatalf("best = %v, cand = %v", heads, tuples(n, "cand"))
	}
	if in, err := aggInput(n, heads[0]); err != nil || !in.Equal(cand) {
		t.Fatalf("best derives from %v (%v), want %s", in, err, cand)
	}
	n.DeleteBase(cand)
	settle()
	if got := append(tuples(n, "best"), tuples(n, "cand")...); len(got) != 0 {
		t.Fatalf("%v survive the deletion of their only support", got)
	}
}
