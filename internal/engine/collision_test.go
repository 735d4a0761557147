package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/openaddr"
	"repro/internal/provenance"
	"repro/internal/types"
)

// A node and its provenance store find their state through openaddr tables —
// the store's VID and RID indexes, the node's tuple table and its group
// table — which keep no keys, so each use compares its own full key.
// TestIndexCollisions puts real keys of each kind on one probe chain and
// checks that each is still added, found and removed on its own: a collision
// costs a longer probe, never a wrong row. The node's index map is a Go map
// keyed by a 64-bit hash; TestJoinProbeChecksRelation forges a collision in
// it.

func mustCompile(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Compile(ndlog.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// homeBits is how many top bits of their hashes the fence's keys share. A
// probe starts at a hash's top bits, so the keys share one home in every
// table of up to 4,096 slots, before and after the growths the fence forces;
// a hash forged at one table size would not survive the growth.
const homeBits = 12

func home(h uint64) uint64 { return h >> (64 - homeBits) }

// sharing returns the first i ≥ from whose hash(i) has the home of h.
func sharing(t *testing.T, h uint64, from int, hash func(i int) uint64) int {
	t.Helper()
	for i := from; i < from+1<<20; i++ {
		if home(hash(i)) == home(h) {
			return i
		}
	}
	t.Fatal("no key shares the home")
	return 0
}

// chainKind is one kind of key an openaddr table holds, with three real
// keys on one probe chain; where the kind's key has a table or rule number,
// keys 0 and 1 differ only in it. add adds key i, found reports whether a
// lookup of key i resolves to what add made of it, remove removes key i
// (nil where the kind's positions are never removed), and fill adds n other
// keys, which grows the table.
type chainKind struct {
	add    func(i int)
	found  func(i int) bool
	remove func(i int)
	fill   func(n int)
}

func (c chainKind) run(t *testing.T) {
	var want [3]bool
	check := func(format string, args ...any) {
		t.Helper()
		for i, w := range want {
			if got := c.found(i); got != w {
				t.Fatalf("%s: key %d found %v, want %v", fmt.Sprintf(format, args...), i, got, w)
			}
		}
	}
	for i := range want {
		c.add(i)
		want[i] = true
		check("key %d added", i)
	}
	c.fill(100)
	check("the table grew")
	if c.remove == nil {
		return
	}
	for i := range want {
		c.remove(i)
		want[i] = false
		check("key %d removed", i)
		c.add(i)
		want[i] = true
		check("key %d added again", i)
	}
	for i := range want {
		c.remove(i)
		want[i] = false
		check("key %d removed for good", i)
	}
}

// TestIndexCollisions runs the fence once per key kind. A lookup that ignores
// the table tag (tuples) or the rule number (groups), or that trusts the
// hash (VIDs and RIDs), finds the wrong position on these chains.
func TestIndexCollisions(t *testing.T) {
	t.Run("VID", func(t *testing.T) {
		s := provenance.NewStore(0, &provenance.Rules{})
		tuple := func(i int) types.Tuple { return types.NewTuple("p", types.Node(0), types.Int(int64(i))) }
		vid := func(i int) uint64 { id := tuple(i).VID(); return id.Hash() }
		keys := []int{0}
		for len(keys) < 3 {
			keys = append(keys, sharing(t, vid(0), keys[len(keys)-1]+1, vid))
		}
		var verts [3]*provenance.Vertex
		register := func(i int) *provenance.Vertex {
			v := &provenance.Vertex{Tuple: tuple(i), VID: tuple(i).VID()}
			s.AddProv(v, types.ZeroID, 0)
			return v
		}
		chainKind{
			add:   func(i int) { verts[i] = register(keys[i]) },
			found: func(i int) bool { v := s.Lookup(tuple(keys[i]).VID()); return v != nil && v == verts[i] },
			remove: func(i int) {
				if found, removed := s.DelProv(verts[i], types.ZeroID); !found || !removed {
					t.Fatalf("DelProv of key %d: found %v, removed %v", i, found, removed)
				}
			},
			fill: func(n int) {
				for i := range n {
					register(-1 - i)
				}
			},
		}.run(t)
	})

	t.Run("RID", func(t *testing.T) {
		labels := []string{"r0", "r1", "r2", "fill"}
		s := provenance.NewStore(0, &provenance.Rules{Labels: labels})
		rid := func(i int) types.ID {
			id, _ := types.RuleExecIDBuf("r", 0, []types.ID{types.HashBytes(fmt.Append(nil, i))}, nil)
			return id
		}
		hash := func(i int) uint64 { id := rid(i); return id.Hash() }
		keys := []types.ID{rid(0)}
		for at := 0; len(keys) < 3; {
			at = sharing(t, hash(0), at+1, hash)
			keys = append(keys, rid(at))
		}
		chainKind{
			add: func(i int) { s.AddRuleExec(keys[i], i, nil) },
			found: func(i int) bool {
				e, ok := s.RuleExecOf(keys[i])
				return ok && e.RID == keys[i] && e.Rule == labels[i] && e.Count == 1
			},
			remove: func(i int) {
				if !s.DelRuleExec(keys[i]) {
					t.Fatalf("DelRuleExec of key %d missed", i)
				}
			},
			fill: func(n int) {
				for i := range n {
					s.AddRuleExec(rid(-1-i), 3, nil)
				}
			},
		}.run(t)
	})

	t.Run("tuple", func(t *testing.T) {
		pool := newEntryPool(2)
		p := &pool
		infos := []*PredInfo{{Name: "p", tableID: 0}, {Name: "q", tableID: 1}}
		arg := func(i int) []types.Value { return []types.Value{types.Node(0), types.Int(int64(i))} }
		x := 0
		for home(p.hash(0, arg(x))) != home(p.hash(1, arg(x))) {
			x++
		}
		y := sharing(t, p.hash(0, arg(x)), x+1, func(i int) uint64 { return p.hash(0, arg(i)) })
		keys := []struct {
			info *PredInfo
			t    types.Tuple
		}{{infos[0], types.Tuple{Pred: "p", Args: arg(x)}}, {infos[1], types.Tuple{Pred: "q", Args: arg(x)}}, {infos[0], types.Tuple{Pred: "p", Args: arg(y)}}}
		var ents [3]*entry
		show := func(info *PredInfo, tu types.Tuple) *entry {
			e := p.getOrCreate(info, tu)
			e.AddRow(types.ZeroID, 0)
			p.setVisible(info, e, true)
			return e
		}
		chainKind{
			add: func(i int) { ents[i] = show(keys[i].info, keys[i].t) },
			found: func(i int) bool {
				e := p.get(keys[i].info, keys[i].t)
				return e != nil && e == ents[i] && e.Tuple.Equal(keys[i].t)
			},
			remove: func(i int) { // tombstone the entry, then sweep its relation
				e, info := ents[i], keys[i].info
				e.DelRow(types.ZeroID)
				p.setVisible(info, e, false)
				p.sweep(info, provenance.NewStore(0, &provenance.Rules{}))
				if err := p.checkCounts(); err != nil {
					t.Fatal(err)
				}
			},
			fill: func(n int) {
				for i := range n {
					show(infos[i%2], types.Tuple{Pred: infos[i%2].Name, Args: arg(-1 - i)})
				}
			},
		}.run(t)
	})

	t.Run("group", func(t *testing.T) {
		n := NewNode(0, mustCompile(t, `b1 best(@X,Z,min<C>) :- item(@X,Z,C).
b2 worst(@X,Z,max<C>) :- item(@X,Z,C).`), ProvReference, &refTransport{})
		rules := n.Prog.Rules
		vals := func(i int) []types.Value { return []types.Value{types.Node(0), types.Int(int64(i))} }
		x := 0
		for home(n.pool.hash(rules[0].idx, vals(x))) != home(n.pool.hash(rules[1].idx, vals(x))) {
			x++
		}
		y := sharing(t, n.pool.hash(rules[0].idx, vals(x)), x+1, func(i int) uint64 { return n.pool.hash(rules[0].idx, vals(i)) })
		keys := []struct {
			rule *CompiledRule
			vals []types.Value
		}{{rules[0], vals(x)}, {rules[1], vals(x)}, {rules[0], vals(y)}}
		var groups [3]*aggGroup
		chainKind{
			add: func(i int) { groups[i] = n.aggGroupAt(keys[i].rule, keys[i].vals) },
			found: func(i int) bool {
				k := keys[i]
				_, g, ok := openaddr.Find(&n.pool.tabs.groups, groupKey{&n.pool, k.vals, uint32(k.rule.idx)}, n.pool.hash(k.rule.idx, k.vals))
				return ok && g == groups[i] && int(g.rule) == k.rule.idx && slices.Equal(g.groupVals, k.vals)
			},
			fill: func(m int) {
				for i := range m {
					n.aggGroupAt(rules[i%2], vals(-1-i))
				}
			},
		}.run(t)
		if got := n.pool.tabs.groups.Len(); got != 103 {
			t.Fatalf("the group table holds %d groups, want 103", got)
		}
	})
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

// TestCheckQuiescentChecksTables: an entry recycled where it sits, as a
// sweep that forgot to remove its slot leaves it, and a group whose key
// changed under it are no longer where a probe for their own keys ends, and
// engine.CheckQuiescent says so.
func TestCheckQuiescentChecksTables(t *testing.T) {
	for _, c := range []struct {
		table   string
		corrupt func(n *Node)
	}{
		{"tuple table", func(n *Node) {
			for e := range n.pool.tabs.tuples.All {
				*e = entry{}
				n.pool.free = append(n.pool.free, e)
				return
			}
		}},
		{"group table", func(n *Node) {
			for g := range n.pool.tabs.groups.All {
				g.rule++
				return
			}
		}},
	} {
		n := NewNode(0, mustCompile(t, `b1 best(@X,Z,min<C>) :- item(@X,Z,C).
b2 worst(@X,Z,max<C>) :- item(@X,Z,C).`), ProvReference, &refTransport{})
		n.InsertBase(types.NewTuple("item", types.Node(0), types.Str("p"), types.Int(3)))
		if err := CheckQuiescent([]*Node{n}); err != nil {
			t.Fatal(err)
		}
		c.corrupt(n)
		if err := CheckQuiescent([]*Node{n}); err == nil || !strings.Contains(err.Error(), c.table) {
			t.Errorf("CheckQuiescent after corrupting the %s: %v", c.table, err)
		}
	}
}
