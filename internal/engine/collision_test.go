package engine

import (
	"testing"

	"repro/internal/ndlog"
	"repro/internal/types"
)

// Relation entries and aggregate groups are keyed by a 64-bit hash of their
// values' handle keys. These tests put two distinct rows on one forged hash
// and check that each is still created, found, listed and removed on its
// own: a collision costs a verification, never a wrong row.

const collidingHash = 42

func mustCompile(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Compile(ndlog.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRelationHashCollision drives two tuples through one hash slot, the
// first in the primary map and the second in the spill, and retires each of
// them in turn through sweep.
func TestRelationHashCollision(t *testing.T) {
	a := types.NewTuple("p", types.Node(0), types.Int(1))
	b := types.NewTuple("p", types.Node(0), types.Int(2))
	for _, retire := range []types.Tuple{a, b} {
		r, p := testRelation("p")
		ea, eb := r.getOrCreateAt(p, collidingHash, a), r.getOrCreateAt(p, collidingHash, b)
		if ea == eb {
			t.Fatal("colliding tuples share an entry")
		}
		if len(r.entries) != 1 || len(r.spill) != 1 {
			t.Fatal("vacuous: the tuples do not share a hash slot")
		}
		for _, e := range []*entry{ea, eb} {
			if got := r.find(collidingHash, e.Tuple.Args); got != e {
				t.Fatalf("find(%v) = %v", e.Tuple, got)
			}
			if got := r.getOrCreateAt(p, collidingHash, e.Tuple); got != e {
				t.Fatalf("getOrCreate(%v) made a second entry", e.Tuple)
			}
			e.AddRow(types.ZeroID, 0)
			r.setVisible(p, e, true)
		}
		if got := r.Tuples(); len(got) != 2 || !got[0].Equal(a) || !got[1].Equal(b) {
			t.Fatalf("Tuples() = %v, want [%v %v]", got, a, b)
		}

		gone := r.find(collidingHash, retire.Args)
		gone.DelRow(types.ZeroID)
		r.setVisible(p, gone, false)
		r.sweep(p)
		if r.find(collidingHash, retire.Args) != nil {
			t.Fatalf("swept %v still found", retire)
		}
		kept := a
		if retire.Equal(a) {
			kept = b
		}
		if e := r.find(collidingHash, kept.Args); e == nil || !e.visible {
			t.Fatalf("sweeping %v lost %v", retire, kept)
		}
		if got := r.Tuples(); len(got) != 1 || !got[0].Equal(kept) {
			t.Fatalf("Tuples() after sweep = %v, want [%v]", got, kept)
		}
		if e := r.getOrCreateAt(p, collidingHash, retire); e.visible || r.find(collidingHash, retire.Args) != e {
			t.Fatalf("re-created %v not found on its own", retire)
		}
	}
}

// TestAggGroupHashCollision puts two groups of one rule on one hash slot and
// runs each through an insert and a delete: outputs and the live-group count
// must follow each group separately.
func TestAggGroupHashCollision(t *testing.T) {
	n := NewNode(0, mustCompile(t, `b1 best(@X,Z,min<C>) :- item(@X,Z,C).`), ProvReference, &refTransport{})
	rule := n.Prog.Rules[0]
	in := func(z string, c int64) types.Tuple {
		return types.NewTuple("item", types.Node(0), types.Str(z), types.Int(c))
	}
	gp := n.aggGroupAt(rule, collidingHash, []types.Value{types.Node(0), types.Str("p")})
	gq := n.aggGroupAt(rule, collidingHash, []types.Value{types.Node(0), types.Str("q")})
	if gp == gq || len(n.aggByRule[rule.idx]) != 1 {
		t.Fatal("vacuous: the groups do not share a hash slot")
	}
	if n.aggGroupAt(rule, collidingHash, []types.Value{types.Node(0), types.Str("p")}) != gp {
		t.Fatal("a second lookup of a chained group made a new one")
	}
	apply := func(g *aggGroup, z string, c int64, sign int8) {
		n.applyAgg(rule, g, n.lookup("item").getOrCreate(&n.pool, in(z, c)), sign)
		n.Flush()
		if n.Err != nil {
			t.Fatal(n.Err)
		}
	}
	apply(gp, "p", 3, Insert)
	apply(gq, "q", 5, Insert)
	if got := tuples(n, "best"); len(got) != 2 || got[0] != "best(@a,p,3)" || got[1] != "best(@a,q,5)" {
		t.Fatalf("best = %v", got)
	}
	if c := n.AggGroupCount(); c != 2 {
		t.Fatalf("AggGroupCount = %d, want 2", c)
	}
	apply(gp, "p", 3, Delete)
	if got := tuples(n, "best"); len(got) != 1 || got[0] != "best(@a,q,5)" {
		t.Fatalf("best after delete = %v", got)
	}
	if c := n.AggGroupCount(); c != 1 {
		t.Fatalf("AggGroupCount after delete = %d, want 1", c)
	}
}
