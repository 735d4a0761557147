package engine

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ndlog"
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
// through a one-node scheduler cluster under both executors (batched rounds
// net each step's deltas before the group re-elects) and checks each
// intermediate fixpoint.
func TestMinAggregateChurnSharded(t *testing.T) {
	prog, err := Compile(ndlog.MustParse(`b1 best(@X,min<C,Y>) :- item(@X,Y,C).`))
	if err != nil {
		t.Fatal(err)
	}
	for _, batched := range executors {
		s := newScheduler(prog, ProvReference, 1, 0, batched)
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
				t.Fatalf("%s: best = %v, want %v", executorName(batched), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: best = %v, want %v", executorName(batched), got, want)
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
			t.Fatalf("%s: ruleExec rows after full retraction = %d, want 0", executorName(batched), got)
		}
	}
}

// TestAggregateMatchesRecompute runs seeded random insert/delete schedules
// through one rule of each aggregate function, under both executors, and
// after every step compares the visible heads with a naive recomputation
// over the live body tuples. The value ranges are small on purpose: rows
// tie on the sort value (the carried value breaks the tie), distinct body
// tuples collapse onto one aggregate row (Z is neither grouped nor carried),
// base tuples are inserted more than once, and deletes hit absent tuples.
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
	for _, batched := range executors {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := newScheduler(prog, ProvReference, 1, 0, batched)
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
					t.Fatalf("%s seed %d step %d:\n got %v\nwant %v", executorName(batched), seed, step, got, w)
				}
			}
		}
	}
}
