package engine

import (
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/types"
)

// TestVertexLifetime pins the contract between a relation entry and the
// provenance vertex it holds (reference mode): the entry finds the vertex
// once, the store drops it with the tuple's last prov row and the entry
// forgets it, and a re-derivation finds a NEW vertex. A stale pointer on the
// revived entry — the bug this design can introduce — would send the
// re-derived rows to the dropped vertex, invisible to every reader. Event
// tuples keep no entry: their insert/delete pair must leave no vertex behind.
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
	for _, batched := range executors {
		t.Run(executorName(batched), func(t *testing.T) {
			n := newNode(0, prog, ProvReference, &testNet{}, nil, batched)
			st := n.Store
			tup := func(pred string, y int64) types.Tuple {
				return types.NewTuple(pred, types.Node(0), types.Int(y))
			}
			out, event := tup("out", 1), tup("eSeen", 1)
			// held returns the vertex the out entry holds and the one the
			// store resolves the VID to; they must agree at every step.
			held := func() (onEntry, inStore *provenance.Vertex) {
				return n.lookup("out").get(out).vert, st.Lookup(out.VID())
			}

			n.InsertBase(tup("in", 2)) // bystander rows: the prior level is not zero
			prior := st.NumProv()
			if prior == 0 {
				t.Fatal("bystander wrote no prov rows")
			}

			n.InsertBase(tup("in", 1))
			if n.Err != nil {
				t.Fatal(n.Err)
			}
			first, inStore := held()
			if first == nil || first != inStore {
				t.Fatalf("after derivation: entry holds %p, store has %p", first, inStore)
			}
			if got, ok := st.TupleOf(out.VID()); !ok || !got.Equal(out) || len(st.Derivations(out.VID())) != 1 {
				t.Fatalf("derived tuple not in the store: %v %v %v", got, ok, st.Derivations(out.VID()))
			}
			if len(st.Derivations(event.VID())) != 1 {
				t.Fatal("event insert recorded no prov row")
			}

			n.DeleteBase(tup("in", 1))
			if onEntry, inStore := held(); onEntry != nil || inStore != nil {
				t.Fatalf("after retraction: entry holds %p, store has %p; want neither", onEntry, inStore)
			}
			if _, ok := st.TupleOf(out.VID()); ok || len(st.Derivations(out.VID())) != 0 {
				t.Fatal("retracted tuple still resolves in the store")
			}
			if _, ok := st.TupleOf(event.VID()); ok || len(st.Derivations(event.VID())) != 0 {
				t.Fatal("an event's insert/delete pair left its vertex behind")
			}
			if got := st.NumProv(); got != prior {
				t.Fatalf("NumProv after retraction = %d, want the prior %d", got, prior)
			}

			n.InsertBase(tup("in", 1))
			second, inStore := held()
			if second == nil || second != inStore || second == first {
				t.Fatalf("after re-derivation: entry holds %p, store has %p, dropped vertex was %p", second, inStore, first)
			}
			if d := st.Derivations(out.VID()); len(d) != 1 || d[0].Count != 1 {
				t.Fatalf("re-derived tuple has rows %+v, want exactly one", d)
			}
			// A further derivation goes through the entry's pointer with no
			// lookup; it must land where readers look.
			n.InsertBase(tup("alt", 1))
			if d := st.Derivations(out.VID()); len(d) != 2 {
				t.Fatalf("second derivation after revival: rows %+v, want two", d)
			}
			if n.Err != nil {
				t.Fatal(n.Err)
			}
		})
	}
}
