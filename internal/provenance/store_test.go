package provenance

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/types"
)

func tid(s string) types.ID { return types.HashString(s) }

// testRules labels the tests' rule numbers 0-3, of at most two inputs.
var testRules = &Rules{Labels: []string{"sp1", "sp2", "sp3", "fw"}, MaxInputs: 2}

// The tests write the way the engine does for a tuple it keeps no relation
// entry for — through the store's vertex API, finding or creating the vertex
// on insert and only looking it up on delete — and read back through the ID
// API, the way the query processor does.

func addProv(s *Store, vid, rid types.ID, rloc types.NodeID) {
	s.AddProv(s.Vertex(vid, types.Tuple{}), rid, rloc)
}

func delProv(s *Store, vid, rid types.ID) bool {
	v := s.Lookup(vid)
	if v == nil {
		return false
	}
	found, _ := s.DelProv(v, rid)
	return found
}

// TestBaseVarStable: a node numbers its base tuples densely in the order it
// first names them, a name is stable, and BaseVID inverts it for this node's
// variables only.
func TestBaseVarStable(t *testing.T) {
	s := NewStore(3, testRules)
	a, b := tid("a"), tid("b")
	va, vb := s.BaseVar(a), s.BaseVar(b)
	if va != (bdd.Var{Node: 3, Ord: 0}) || vb != (bdd.Var{Node: 3, Ord: 1}) {
		t.Fatalf("variables %v, %v; want x3.0, x3.1", va, vb)
	}
	if s.BaseVar(a) != va {
		t.Fatal("numbering not stable")
	}
	if got, ok := s.BaseVID(vb); !ok || got != b {
		t.Fatal("BaseVID lookup failed")
	}
	for _, v := range []bdd.Var{{Node: 3, Ord: 2}, {Node: 4, Ord: 0}} {
		if _, ok := s.BaseVID(v); ok {
			t.Fatalf("BaseVID(%v) resolved a variable this store never numbered", v)
		}
	}
}

func TestProvEntryLifecycle(t *testing.T) {
	s := NewStore(0, testRules)
	tu := types.NewTuple("p", types.Node(0), types.Int(1))
	vid := tu.VID()
	v := s.Vertex(vid, tu)
	if _, ok := s.TupleOf(vid); ok {
		t.Fatal("a vertex with no rows resolves")
	}
	s.AddProv(v, tid("r1"), 2)
	if got, ok := s.TupleOf(vid); !ok || !got.Equal(tu) {
		t.Fatal("the first row did not register the tuple")
	}
	addProv(s, vid, tid("r2"), 3)
	if len(s.Derivations(vid)) != 2 {
		t.Fatalf("derivations = %d", len(s.Derivations(vid)))
	}
	// Duplicate insert increments the count, not the row set.
	addProv(s, vid, tid("r1"), 2)
	if len(s.Derivations(vid)) != 2 {
		t.Fatal("duplicate created new row")
	}
	if !delProv(s, vid, tid("r1")) {
		t.Fatal("DelProv failed")
	}
	if len(s.Derivations(vid)) != 2 {
		t.Fatal("row removed while count > 0")
	}
	delProv(s, vid, tid("r1"))
	if len(s.Derivations(vid)) != 1 {
		t.Fatal("row not removed at count 0")
	}
	delProv(s, vid, tid("r2"))
	if len(s.Derivations(vid)) != 0 {
		t.Fatal("store not empty")
	}
	if _, ok := s.TupleOf(vid); ok {
		t.Fatal("tuple mapping survived last derivation")
	}
	if delProv(s, vid, tid("r2")) {
		t.Fatal("deleting a missing entry reported success")
	}
}

func TestOnProvChangeFires(t *testing.T) {
	s := NewStore(0, testRules)
	var events []types.ID
	s.OnProvChange = func(vid types.ID) { events = append(events, vid) }
	vid := tid("v")
	addProv(s, vid, types.ZeroID, 0)
	delProv(s, vid, types.ZeroID)
	if len(events) != 2 || events[0] != vid || events[1] != vid {
		t.Fatalf("events = %v", events)
	}
}

func TestRuleExecLifecycle(t *testing.T) {
	s := NewStore(1, testRules)
	rid := tid("exec")
	a, b := &Vertex{VID: tid("a")}, &Vertex{VID: tid("b")}
	inputs := []*Vertex{a, b}
	s.AddRuleExec(rid, 1, inputs)
	re, ok := s.RuleExecOf(rid)
	if !ok || re.Rule != "sp2" || len(re.VIDList) != 2 || re.VIDList[0] != a.VID || re.VIDList[1] != b.VID {
		t.Fatalf("entry = %+v", re)
	}
	// The row names the vertices, not the caller's slice.
	inputs[0] = &Vertex{VID: tid("mutated")}
	if re, _ := s.RuleExecOf(rid); re.VIDList[0] != a.VID {
		t.Fatal("the row reads the caller's slice")
	}
	// A VIDList is the reader's: later reads and writes leave it as it is.
	s.AddRuleExec(tid("other"), 1, []*Vertex{b, a})
	s.RuleExecOf(tid("other"))
	if re.VIDList[0] != a.VID || re.VIDList[1] != b.VID {
		t.Fatalf("a kept VIDList changed under later reads and writes: %v", re.VIDList)
	}
	// RuleExecInto appends to the reader's memory.
	buf := make([]types.ID, 1, 4)
	if e, ok := s.RuleExecInto(buf, rid); !ok || len(e.VIDList) != 3 || &e.VIDList[0] != &buf[0] || e.VIDList[2] != b.VID {
		t.Fatalf("RuleExecInto = %+v %v, want buf's element then a and b", e, ok)
	}
	s.AddRuleExec(rid, 1, inputs)
	s.DelRuleExec(rid)
	if _, ok := s.RuleExecOf(rid); !ok {
		t.Fatal("entry removed while count > 0")
	}
	s.DelRuleExec(rid)
	if _, ok := s.RuleExecOf(rid); ok {
		t.Fatal("entry survived count 0")
	}
	if s.DelRuleExec(rid) {
		t.Fatal("deleting missing entry succeeded")
	}
}

// TestHandleOutlivesRegistration: a row names its input by handle, and the
// handle stays the vertex's while the vertex is forgotten and registered
// again — a tuple whose only derivation is swapped within one round — so
// the row reads the same VID throughout. The store frees the handle once
// the vertex has no rows and no row names it, in either order, and a freed
// handle goes to the next vertex that needs one: a store whose writer
// carves a vertex per event keeps none of them after their rows go.
func TestHandleOutlivesRegistration(t *testing.T) {
	s := NewStore(1, testRules)
	v := &Vertex{VID: tid("v")}
	s.AddProv(v, tid("r1"), 1)
	h := v.h
	rid := tid("exec")
	s.AddRuleExec(rid, 0, []*Vertex{v})
	s.DelProv(v, tid("r1"))
	other := &Vertex{VID: tid("w")}
	s.AddProv(other, tid("r1"), 1)
	s.AddProv(v, tid("r2"), 1)
	if v.h != h || other.h == h || s.Lookup(v.VID) != v {
		t.Fatalf("handles after re-registration: v %d (was %d), other %d", v.h, h, other.h)
	}
	if e, _ := s.RuleExecOf(rid); e.VIDList[0] != v.VID {
		t.Fatalf("the row reads %s, want %s", e.VIDList[0].Short(), v.VID.Short())
	}
	if s.DelRuleExec(rid); v.h != h {
		t.Fatal("a registered vertex lost its handle with the last row naming it")
	}
	if s.DelProv(v, tid("r2")); v.h != 0 || s.vtab[h] != nil {
		t.Fatal("the handle of a vertex with no rows that no row names was kept")
	}
	next := &Vertex{VID: tid("x")}
	if s.AddRuleExec(tid("exec2"), 0, []*Vertex{next}); next.h != h {
		t.Fatalf("the next vertex got handle %d, want the freed %d", next.h, h)
	}
	for i := range 100 {
		ev := s.Vertex(tid(fmt.Sprint("event", i)), types.Tuple{})
		s.AddProv(ev, types.ZeroID, 1)
		s.AddRuleExec(tid(fmt.Sprint("fire", i)), 3, []*Vertex{ev})
		s.DelProv(ev, types.ZeroID)
		s.DelRuleExec(tid(fmt.Sprint("fire", i)))
	}
	held := 0
	for _, v := range s.vtab {
		if v != nil {
			held++
		}
	}
	if held != 2 {
		t.Fatalf("%d handles held after 100 event cycles, want 2 (other and next)", held)
	}
}

// TestCheckRuleExecs: the fence accepts rows whose RID hashes their rule,
// node and input VIDs, and reports a miscounted handle and a row whose input
// handle was freed or now names another vertex. Release keeps the handle of
// a vertex a row names.
func TestCheckRuleExecs(t *testing.T) {
	s := NewStore(4, testRules)
	a, b := &Vertex{VID: tid("a")}, &Vertex{VID: tid("b")}
	rid, _ := types.RuleExecIDBuf("sp2", 4, []types.ID{a.VID, b.VID}, nil)
	s.AddRuleExec(rid, 1, []*Vertex{a, b})
	if err := s.CheckRuleExecs(); err != nil {
		t.Fatal(err)
	}
	if s.Release(b); b.h == 0 {
		t.Fatal("Release freed the handle of a vertex a row names")
	}
	s.refs[a.h]++
	if err := s.CheckRuleExecs(); err == nil || !strings.Contains(err.Error(), "row inputs name it") {
		t.Fatalf("a miscounted handle: %v", err)
	}
	s.refs[a.h]--
	h := b.h
	s.vtab[h] = nil // as if b's handle had been freed under the row
	if err := s.CheckRuleExecs(); err == nil || !strings.Contains(err.Error(), "names no vertex") {
		t.Fatalf("a freed input handle: %v", err)
	}
	s.vtab[h] = &Vertex{VID: tid("c"), h: h} // and given to another vertex
	if err := s.CheckRuleExecs(); err == nil || !strings.Contains(err.Error(), "hash to") {
		t.Fatalf("an input handle reused by another vertex: %v", err)
	}
}

func TestParentEdges(t *testing.T) {
	s := NewStore(2, testRules)
	in, rid, head := tid("in"), tid("rid"), tid("head")
	s.AddParent(in, rid, head, 5)
	s.AddParent(in, rid, head, 5) // duplicate: count only
	s.AddParent(in, tid("rid2"), head, 5)
	if len(s.Parents(in)) != 2 || s.NumParents() != 2 {
		t.Fatal("duplicate parent row")
	}
	// An invalidation wave consumes every edge of the VID at once.
	s.DropParents(in)
	if len(s.Parents(in)) != 0 || s.NumParents() != 0 {
		t.Fatal("parent survived")
	}
}

func TestRowRendering(t *testing.T) {
	s := NewStore(0, testRules)
	tu := types.NewTuple("link", types.Node(0), types.Node(2), types.Int(5))
	vid := tu.VID()
	s.AddProv(s.Vertex(vid, tu), types.ZeroID, 0)
	rows := s.ProvRows()
	if len(rows) != 1 || !strings.Contains(rows[0], "link(@a,c,5)") || !strings.Contains(rows[0], "null") {
		t.Fatalf("prov rows = %v", rows)
	}
	rid := tid("exec")
	s.AddRuleExec(rid, 0, []*Vertex{s.Lookup(vid)})
	rer := s.RuleExecRows()
	if len(rer) != 1 || !strings.Contains(rer[0], "sp1") || !strings.Contains(rer[0], "link(@a,c,5)") {
		t.Fatalf("ruleExec rows = %v", rer)
	}
	if s.NumProv() != 1 || s.NumRuleExec() != 1 {
		t.Fatal("counters wrong")
	}
}

// TestVertexWriteSurface pins the write surface the engine's delta path
// uses: a writer owns its vertex, the store registers it with its first row
// and forgets it with its last (after which the VID resolves to nothing, and
// the same vertex registers again with its next row), rows written through
// the vertex are visible through the ID-based read API, a row is keyed by
// its RID alone, and read paths tolerate IDs the store has never seen.
// Neither writes nor reads may grow the ID intern table: rows are keyed by
// the digests themselves.
func TestVertexWriteSurface(t *testing.T) {
	_, idsBefore, _, _ := types.InternStats()
	s := NewStore(1, testRules)
	tu := types.NewTuple("q", types.Node(1), types.Int(7))
	vid := tu.VID()

	v := &Vertex{Tuple: tu, VID: vid} // as a relation entry embeds one
	if s.Lookup(vid) != nil || s.Vertex(vid, tu) == v {
		t.Fatal("a vertex with no rows is registered")
	}
	s.AddProv(v, tid("r1"), 2)
	if s.Lookup(vid) != v || s.Vertex(vid, types.Tuple{}) != v {
		t.Fatal("the first row did not register the writer's vertex")
	}
	if got, ok := s.TupleOf(vid); !ok || !got.Equal(tu) {
		t.Fatal("vertex tuple not visible through the ID API")
	}
	// A second derivation via r1 from another location is the same row.
	if r := s.AddProv(v, tid("r1"), 5); r.Count != 2 || r.RLoc != 2 || len(v.Rows) != 1 {
		t.Fatalf("rows after a second r1 derivation = %+v, want one row of count 2 at 2", v.Rows)
	}
	s.AddProv(v, tid("r2"), 3)
	s.AddProv(v, tid("r3"), 4)
	if len(s.Derivations(vid)) != 3 {
		t.Fatal("prov rows added on the vertex not visible through the ID API")
	}
	if found, removed := s.DelProv(v, tid("r1")); !found || removed {
		t.Fatalf("DelProv of a count-2 row = (%v, %v), want (true, false)", found, removed)
	}
	if found, removed := s.DelProv(v, tid("r1")); !found || !removed || s.Lookup(vid) != v {
		t.Fatalf("DelProv of one of three rows = (%v, %v), want (true, true) and the vertex kept", found, removed)
	}
	// The survivors keep their order: the query processor walks them in it.
	if d := s.Derivations(vid); len(d) != 2 || d[0].RID != tid("r2") || d[1].RID != tid("r3") {
		t.Fatalf("rows after removing the first = %+v, want r2 then r3", d)
	}
	if found, removed := s.DelProv(v, tid("r1")); found || removed {
		t.Fatalf("DelProv of a missing row = (%v, %v), want (false, false)", found, removed)
	}
	s.DelProv(v, tid("r3"))
	if found, removed := s.DelProv(v, tid("r2")); !found || !removed {
		t.Fatalf("DelProv of the last row = (%v, %v), want (true, true)", found, removed)
	}
	if len(s.Derivations(vid)) != 0 || s.Lookup(vid) != nil || s.NumProv() != 0 {
		t.Fatal("vertex survived its last row")
	}
	if _, ok := s.TupleOf(vid); ok {
		t.Fatal("tuple mapping survived the vertex")
	}
	s.AddProv(v, tid("r2"), 3)
	if s.Lookup(vid) != v || s.NumProv() != 1 {
		t.Fatal("the next row did not register the same vertex again")
	}
	s.DelProv(v, tid("r2"))

	rid := tid("exec")
	s.AddRuleExec(rid, 1, []*Vertex{v})
	if e, ok := s.RuleExecOf(rid); !ok || e.Rule != "sp2" || e.Count != 1 || e.RID != rid {
		t.Fatal("ruleExec row not visible through the ID API")
	}
	if !s.DelRuleExec(rid) {
		t.Fatal("DelRuleExec missed the row")
	}

	// Read paths on a digest nothing ever stored: empty results.
	var alien types.ID
	copy(alien[:], "completely-unseen-digest!!")
	if s.Derivations(alien) != nil || s.Parents(alien) != nil {
		t.Fatal("unknown ID produced rows")
	}
	if _, ok := s.TupleOf(alien); ok {
		t.Fatal("unknown ID resolved to a tuple")
	}
	if _, ok := s.RuleExecOf(alien); ok {
		t.Fatal("unknown ID resolved to a ruleExec row")
	}
	if delProv(s, alien, rid) || s.DelRuleExec(alien) {
		t.Fatal("deleting under an unknown ID claimed success")
	}
	s.AddParent(vid, rid, tid("head"), 0)
	s.DropParents(alien)
	if _, idsAfter, _, _ := types.InternStats(); idsAfter != idsBefore {
		t.Fatalf("store writes and probes grew the ID intern table: %d -> %d", idsBefore, idsAfter)
	}
}

// sharedPrefix returns two distinct digests whose first eight bytes — the
// hash the store's indexes find a digest by — are equal.
func sharedPrefix(s string) (a, b types.ID) {
	a = tid(s)
	b = a
	b[19] ^= 0xff
	return a, b
}
