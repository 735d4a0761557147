package engine

import (
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/types"
)

// A node keeps every relation's entries in one tuple map, every index's
// buckets in one index map and every rule's aggregate groups in one group
// map, each keyed by a 64-bit hash. These tests put distinct rows on one forged hash
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

// TestRelationHashCollision puts a p tuple and a q tuple with equal args on
// one slot of a node's tuple map (the first in the map, the second in the
// spill) and files both under one index-map bucket (the relations' indexes
// forged to one number). Each relation must find, list, sweep and revive
// only its own entry; a sweep of one relation must spare the other's
// tombstone.
func TestRelationHashCollision(t *testing.T) {
	a := types.NewTuple("p", types.Node(0), types.Int(1))
	b := types.NewTuple("q", types.Node(0), types.Int(1))
	// Unforged, the two hash apart in both maps: each hash starts with the
	// table or index number.
	unforged := newEntryPool(2)
	for i, tu := range []types.Tuple{a, b} {
		r := &PredInfo{Name: tu.Pred, tableID: i, indexes: []index{{num: i, id: "0", positions: []int{0}}}}
		e := unforged.getOrCreate(r, tu)
		e.AddRow(types.ZeroID, 0)
		unforged.setVisible(r, e, true)
	}
	if unforged.spill != nil || unforged.lists != nil {
		t.Fatal("equal args of two relations share a hash slot")
	}
	for _, retire := range []types.Tuple{a, b} {
		pool := newEntryPool(2)
		p := &pool
		rels := map[string]*PredInfo{}
		for i, name := range []string{"p", "q"} {
			ix := index{num: 0, id: "0", positions: []int{0}}
			rels[name] = &PredInfo{Name: name, tableID: i, indexes: []index{ix}}
		}
		ea := p.getOrCreateAt(rels["p"], collidingHash, a)
		eb := p.getOrCreateAt(rels["q"], collidingHash, b)
		if ea == eb {
			t.Fatal("colliding tuples of two relations share an entry")
		}
		if len(p.tuples) != 1 || len(p.spill) != 1 {
			t.Fatal("vacuous: the tuples do not share a hash slot")
		}
		for _, e := range []*entry{ea, eb} {
			r := rels[e.Tuple.Pred]
			e.AddRow(types.ZeroID, 0)
			if got := p.find(r, collidingHash, e.Tuple.Args); got != e {
				t.Fatalf("find(%v) = %v", e.Tuple, got)
			}
			if got := p.getOrCreateAt(r, collidingHash, e.Tuple); got != e {
				t.Fatalf("getOrCreate(%v) made a second entry", e.Tuple)
			}
			p.setVisible(r, e, true)
		}
		if len(p.buckets) != 1 || len(p.lists) != 1 {
			t.Fatal("vacuous: the entries do not share an index bucket")
		}
		for _, e := range []*entry{ea, eb} {
			if got := p.Tuples(rels[e.Tuple.Pred]); len(got) != 1 || !got[0].Equal(e.Tuple) {
				t.Fatalf("%s lists %v, want [%v]", e.Tuple.Pred, got, e.Tuple)
			}
		}

		kept := b
		if retire.Equal(b) {
			kept = a
		}
		rr, kr := rels[retire.Pred], rels[kept.Pred]
		gone := p.find(rr, collidingHash, retire.Args)
		gone.DelRow(types.ZeroID)
		p.setVisible(rr, gone, false)
		p.unindex(rr, gone)
		p.sweep(rr, provenance.NewStore(0, &provenance.Rules{}))
		if p.find(rr, collidingHash, retire.Args) != nil {
			t.Fatalf("swept %v still found", retire)
		}
		ke := p.find(kr, collidingHash, kept.Args)
		if ke == nil || !ke.visible {
			t.Fatalf("sweeping %v lost %v", retire, kept)
		}
		if got := p.Tuples(kr); len(got) != 1 || !got[0].Equal(kept) {
			t.Fatalf("%s lists %v after the sweep, want [%v]", kept.Pred, got, kept)
		}
		if got := p.Tuples(rr); len(got) != 0 {
			t.Fatalf("%s lists %v after the sweep, want none", retire.Pred, got)
		}

		// Tombstone the kept tuple too: another sweep of the retired
		// relation must leave it for its own relation to revive.
		ke.DelRow(types.ZeroID)
		p.setVisible(kr, ke, false)
		p.unindex(kr, ke)
		p.sweep(rr, provenance.NewStore(0, &provenance.Rules{}))
		if p.find(kr, collidingHash, kept.Args) != ke || p.counts[kr.tableID].dead != 1 {
			t.Fatalf("sweeping %s reclaimed the %s tombstone", retire.Pred, kept.Pred)
		}
		if e := p.getOrCreateAt(kr, collidingHash, kept); e != ke || p.counts[kr.tableID].dead != 0 {
			t.Fatalf("reviving %v made a new entry", kept)
		}
		if e := p.getOrCreateAt(rr, collidingHash, retire); e == ke || e.visible || p.find(rr, collidingHash, retire.Args) != e {
			t.Fatalf("re-created %v not found on its own", retire)
		}
	}
}

// TestJoinProbeChecksRelation forges the index-map collision inside a node:
// p's and q's indexes over the location are given one number, so a p tuple
// and a q tuple at one node share a bucket, and a join probe on p must bind
// only the p entry.
func TestJoinProbeChecksRelation(t *testing.T) {
	prog := mustCompile(t, `r1 outp(@X,Y) :- eGo(@X), p(@X,Y).
r2 outq(@X,Y) :- eGo(@X), q(@X,Y).`)
	num := prog.Pred("p").indexes[0].num
	prog.Pred("q").indexes[0].num = num
	for _, cr := range prog.Rules {
		for _, pl := range cr.plans {
			for i := range pl.steps {
				if pl.steps[i].index >= 0 {
					pl.steps[i].index = num
				}
			}
		}
	}
	n := NewNode(0, prog, ProvReference, &refTransport{})
	n.InsertBase(types.NewTuple("p", types.Node(0), types.Int(1)))
	n.InsertBase(types.NewTuple("q", types.Node(0), types.Int(2)))
	if len(n.pool.lists) != 1 {
		t.Fatal("vacuous: the p and q entries do not share an index bucket")
	}
	n.InjectEvent(types.NewTuple("eGo", types.Node(0)))
	if n.Err != nil {
		t.Fatal(n.Err)
	}
	if got := tuples(n, "outp"); len(got) != 1 || got[0] != "outp(@a,1)" {
		t.Fatalf("outp = %v, want [outp(@a,1)]", got)
	}
	if got := tuples(n, "outq"); len(got) != 1 || got[0] != "outq(@a,2)" {
		t.Fatalf("outq = %v, want [outq(@a,2)]", got)
	}
}

// TestAggGroupHashCollision puts two groups of one rule, and a group of
// another rule with equal group-by values, on one slot of the node's group
// map and runs each through an insert and a delete: outputs and the
// live-group count must follow each group separately.
func TestAggGroupHashCollision(t *testing.T) {
	n := NewNode(0, mustCompile(t, `b1 best(@X,Z,min<C>) :- item(@X,Z,C).
b2 worst(@X,Z,max<C>) :- item(@X,Z,C).`), ProvReference, &refTransport{})
	rule, other := n.Prog.Rules[0], n.Prog.Rules[1]
	in := func(z string, c int64) types.Tuple {
		return types.NewTuple("item", types.Node(0), types.Str(z), types.Int(c))
	}
	gp := n.aggGroupAt(rule, collidingHash, []types.Value{types.Node(0), types.Str("p")})
	gq := n.aggGroupAt(rule, collidingHash, []types.Value{types.Node(0), types.Str("q")})
	gw := n.aggGroupAt(other, collidingHash, []types.Value{types.Node(0), types.Str("p")})
	if gw == gp {
		t.Fatal("b2's group is b1's group of equal values: the lookup ignores the rule")
	}
	if gp == gq || len(n.aggGroups) != 1 {
		t.Fatal("vacuous: the groups do not share a hash slot")
	}
	if n.aggGroupAt(rule, collidingHash, []types.Value{types.Node(0), types.Str("p")}) != gp ||
		n.aggGroupAt(other, collidingHash, []types.Value{types.Node(0), types.Str("p")}) != gw {
		t.Fatal("a second lookup of a chained group made a new one")
	}
	apply := func(g *aggGroup, z string, c int64, sign int8) {
		n.borrow()
		n.applyAgg(g, n.pool.getOrCreate(n.lookup("item"), in(z, c)), sign)
		n.giveBack()
		n.Flush()
		if n.Err != nil {
			t.Fatal(n.Err)
		}
	}
	apply(gp, "p", 3, Insert)
	apply(gq, "q", 5, Insert)
	apply(gw, "p", 4, Insert)
	if got := tuples(n, "best"); len(got) != 2 || got[0] != "best(@a,p,3)" || got[1] != "best(@a,q,5)" {
		t.Fatalf("best = %v", got)
	}
	if got := tuples(n, "worst"); len(got) != 1 || got[0] != "worst(@a,p,4)" {
		t.Fatalf("worst = %v", got)
	}
	if c := n.AggGroupCount(); c != 3 {
		t.Fatalf("AggGroupCount = %d, want 3", c)
	}
	apply(gp, "p", 3, Delete)
	if got := tuples(n, "best"); len(got) != 1 || got[0] != "best(@a,q,5)" {
		t.Fatalf("best after delete = %v", got)
	}
	if got := tuples(n, "worst"); len(got) != 1 || got[0] != "worst(@a,p,4)" {
		t.Fatalf("worst after deleting from best's group = %v", got)
	}
	if c := n.AggGroupCount(); c != 2 {
		t.Fatalf("AggGroupCount after delete = %d, want 2", c)
	}
}
