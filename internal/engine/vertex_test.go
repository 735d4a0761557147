package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/types"
)

// drivers are the two ways the vertex fences drive nodes, one message per
// ingest (nodes over a synchronous transport) and a round of messages per
// ingest (the Scheduler). The subtest names predate the single executor and
// stay, as dumpprov.golden's cell labels do: "drain" names the first driver
// and "batched" the second.
var drivers = []struct {
	name  string
	sched bool
}{{"drain", false}, {"batched", true}}

// TestVertexLifetime pins the contract between a relation entry and the
// provenance vertex it embeds (reference mode): the store resolves the VID to
// the entry's own vertex while the entry has rows, forgets it with the last
// row, and a revived tombstone registers that same vertex again. A stale
// registration — the bug this design can introduce — would leave readers
// resolving a retracted tuple, or resolve a re-derived one to nothing. Event
// tuples keep no entry: their insert/delete pair must leave no vertex behind.
// It runs under both drivers.
func TestVertexLifetime(t *testing.T) {
	prog, err := Compile(ndlog.MustParse(`
r1 out(@X,Y) :- in(@X,Y).
r2 out(@X,Y) :- alt(@X,Y).
r3 eSeen(@X,Y) :- in(@X,Y).
r4 seen(@X,Y) :- eSeen(@X,Y).
`))
	if err != nil {
		t.Fatal(err)
	}
	for _, drv := range drivers {
		t.Run(drv.name, func(t *testing.T) {
			run := startPermRun(prog, ProvReference, permScript{nodes: 1}, drv.sched)
			n := run.nodes[0]
			insert := func(tu types.Tuple) { run.step(t, permStep{ins: []types.Tuple{tu}}) }
			remove := func(tu types.Tuple) { run.step(t, permStep{del: []types.Tuple{tu}}) }
			st := n.Store
			tup := func(pred string, y int64) types.Tuple {
				return types.NewTuple(pred, types.Node(0), types.Int(y))
			}
			out, event := tup("out", 1), tup("eSeen", 1)

			insert(tup("in", 2)) // bystander rows: the prior level is not zero
			prior := st.NumProv()
			if prior == 0 {
				t.Fatal("bystander wrote no prov rows")
			}

			insert(tup("in", 1))
			if n.Err != nil {
				t.Fatal(n.Err)
			}
			e := n.lookup("out").get(&n.pool, out)
			if e == nil || st.Lookup(out.VID()) != &e.Vertex {
				t.Fatalf("after derivation: store resolves %p, want the entry's own vertex", st.Lookup(out.VID()))
			}
			if got, ok := st.TupleOf(out.VID()); !ok || !got.Equal(out) || len(st.Derivations(out.VID())) != 1 {
				t.Fatalf("derived tuple not in the store: %v %v %v", got, ok, st.Derivations(out.VID()))
			}
			if len(st.Derivations(event.VID())) != 1 {
				t.Fatal("event insert recorded no prov row")
			}

			remove(tup("in", 1))
			if n.lookup("out").get(&n.pool, out) != e || e.visible || len(e.Rows) != 0 {
				t.Fatal("vacuous: the retracted entry is not a tombstone")
			}
			if st.Lookup(out.VID()) != nil || len(st.Derivations(out.VID())) != 0 {
				t.Fatal("the store kept the vertex of a tuple with no rows")
			}
			if _, ok := st.TupleOf(event.VID()); ok || len(st.Derivations(event.VID())) != 0 {
				t.Fatal("an event's insert/delete pair left its vertex behind")
			}
			if got := st.NumProv(); got != prior {
				t.Fatalf("NumProv after retraction = %d, want the prior %d", got, prior)
			}

			insert(tup("in", 1))
			if n.lookup("out").get(&n.pool, out) != e || st.Lookup(out.VID()) != &e.Vertex {
				t.Fatal("after re-derivation: the revived tombstone's vertex is not the one registered")
			}
			if d := st.Derivations(out.VID()); len(d) != 1 || d[0].Count != 1 {
				t.Fatalf("re-derived tuple has rows %+v, want exactly one", d)
			}
			insert(tup("alt", 1))
			if d := st.Derivations(out.VID()); len(d) != 2 {
				t.Fatalf("second derivation after revival: rows %+v, want two", d)
			}
			if n.Err != nil {
				t.Fatal(n.Err)
			}
		})
	}
}

// checkVertexRegistration asserts the store/entry invariant on one node: an
// entry's embedded vertex is registered in the store if and only if the node
// runs in reference mode, the entry is not a prov/ruleExec meta tuple, and it
// has at least one row; and the store holds exactly the rows of the
// registered entries (the program has no events).
func checkVertexRegistration(t *testing.T, n *Node, step string) {
	t.Helper()
	rows := 0
	for e := range n.pool.all {
		meta := e.Tuple.Pred == "prov" || e.Tuple.Pred == "ruleExec"
		want := n.Mode == ProvReference && !meta && len(e.Rows) > 0
		var got bool
		if !e.VID.IsZero() {
			got = n.Store.Lookup(e.VID) == &e.Vertex
		}
		if got != want {
			t.Fatalf("%s: node %d %v (%d rows, visible %v): registered %v, want %v",
				step, n.ID, e.Tuple, len(e.Rows), e.visible, got, want)
		}
		if !e.visible && !e.staged && len(e.Rows) > 0 {
			t.Fatalf("%s: node %d %v is hidden, unstaged, with %d rows", step, n.ID, e.Tuple, len(e.Rows))
		}
		if want {
			rows += len(e.Rows)
		}
	}
	if got := n.Store.NumProv(); got != rows {
		t.Fatalf("%s: node %d: store holds %d prov rows, registered entries %d", step, n.ID, got, rows)
	}
}

// TestVertexRegistrationUnderChurn runs a seeded insert/delete/re-insert
// schedule of links under a recursive reachability program (cyclic support,
// so retraction over-deletes and re-derives) in reference mode under both
// drivers, and checks checkVertexRegistration on every node after every
// step. Revived tombstones, over-deleted suspects and swept entries all pass
// through the schedule.
func TestVertexRegistrationUnderChurn(t *testing.T) {
	prog, err := Compile(ndlog.MustParse(`
r1 reach(@S,D) :- link(@S,D).
r2 reach(@Z,D) :- link(@S,Z), reach(@S,D).
`))
	if err != nil {
		t.Fatal(err)
	}
	const nodes, steps = 5, 60
	link := func(u, v int) types.Tuple {
		return types.NewTuple("link", types.Node(types.NodeID(u)), types.Node(types.NodeID(v)))
	}
	for _, drv := range drivers {
		t.Run(drv.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			run := startPermRun(prog, ProvReference, permScript{nodes: nodes}, drv.sched)
			up := map[[2]int]bool{}
			for step := 0; step < steps; step++ {
				u, v := rng.Intn(nodes), rng.Intn(nodes-1)
				if v >= u {
					v++
				}
				if u > v {
					u, v = v, u
				}
				flip := []types.Tuple{link(u, v), link(v, u)}
				if up[[2]int{u, v}] {
					run.step(t, permStep{del: flip})
				} else {
					run.step(t, permStep{ins: flip})
				}
				up[[2]int{u, v}] = !up[[2]int{u, v}]
				for _, n := range run.nodes {
					checkVertexRegistration(t, n, fmt.Sprintf("step %d", step))
				}
			}
			var derived int
			for _, n := range run.nodes {
				derived += n.TupleCount("reach")
			}
			if derived == 0 {
				t.Fatal("vacuous: nothing reachable at the end of the schedule")
			}
		})
	}
}

// TestRowsKeyedByRIDAlone: without reference provenance a remote derivation
// arrives with the null RID and no location, and a base insertion carries the
// null RID at the receiving node. All of them are one row, keyed by RID alone,
// whose count is the number of derivations: the tuple survives the loss of
// any one of them. A (RID, RLoc) key would split the base row from the
// remote ones.
func TestRowsKeyedByRIDAlone(t *testing.T) {
	for _, mode := range []ProvMode{ProvNone, ProvCentralized} {
		t.Run(mode.String(), func(t *testing.T) {
			tn := newTestNet(t, `r1 hit(@D) :- src(@S,D).`, 3, mode)
			src := func(s int) types.Tuple {
				return types.NewTuple("src", types.Node(types.NodeID(s)), types.Node(1))
			}
			hit := types.NewTuple("hit", types.Node(1))
			node := tn.nodes[1]
			tn.nodes[0].InsertBase(src(0))
			tn.nodes[2].InsertBase(src(2))
			node.InsertBase(hit)
			tn.checkErr(t)
			e := node.lookup("hit").get(&node.pool, hit)
			if e == nil || !e.visible || len(e.Rows) != 1 || e.Rows[0].Count != 3 {
				t.Fatalf("hit after two remote derivations and a base insert: %+v, want one row of count 3", e)
			}
			tn.nodes[0].DeleteBase(src(0))
			node.DeleteBase(hit)
			tn.checkErr(t)
			if !e.visible || len(e.Rows) != 1 || e.Rows[0].Count != 1 {
				t.Fatalf("hit after losing two of three derivations: visible %v, rows %+v", e.visible, e.Rows)
			}
			tn.nodes[2].DeleteBase(src(2))
			tn.checkErr(t)
			if e.visible || len(e.Rows) != 0 {
				t.Fatalf("hit after losing every derivation: visible %v, rows %+v", e.visible, e.Rows)
			}
		})
	}
}
