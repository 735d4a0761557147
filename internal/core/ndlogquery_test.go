package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/drivertest"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/provquery"
	"repro/internal/topology"
	"repro/internal/types"
)

// TestNDlogQueryProgramExecution runs the paper's §5.1 distributed query
// program *as NDlog through the engine itself* — protocol, provenance
// maintenance and provenance querying all expressed declaratively — and
// checks every POLYNOMIAL answer, under canon, against the native
// processor's BFS, cache-off answer on reference-mode provenance.
//
// The declarative cluster runs MINCOST through the Algorithm 1 provenance
// rewrite plus apps.QueryProgramSrc in one engine, with no native
// provenance; a query is an eProvQuery event at the tuple's node, and its
// answer the one queryResult row at the issuer.
//
// The program gives a query no lifetime: an answered buffer stays live and
// fires again when numChild changes, so churn after a query re-answers it
// and need not reach a fixpoint. The transit-stub case therefore flaps its
// link before the first query, not between queries.
//
// Cyclic provenance is out of scope. MINCOST's is acyclic (costs grow along
// every derivation); on a cycle the program would not terminate, since every
// hop mints fresh query IDs and nothing cuts a vertex already on the path.
func TestNDlogQueryProgramExecution(t *testing.T) {
	t.Run("figure3", func(t *testing.T) {
		decl, native := queryProgramClusters(t, topology.Figure3())
		var qs []programQuery
		for _, ref := range native.TuplesOf("bestPathCost") {
			qs = append(qs, programQuery{issuer: d, ref: ref})
		}
		if len(qs) < 12 {
			t.Fatalf("only %d bestPathCost tuples", len(qs))
		}
		checkQueryProgram(t, decl, native, qs)
	})

	t.Run("transit-stub", func(t *testing.T) {
		topo := topology.TransitStub(topology.DefaultTransitStub(1), rand.New(rand.NewSource(1)))
		decl, native := queryProgramClusters(t, topo)
		flap := topo.Links[0]
		for _, c := range []*core.Cluster{decl, native} {
			c.RemoveLink(flap)
			runToFixpoint(t, c)
			c.AddLink(flap)
			runToFixpoint(t, c)
		}
		targets := native.TuplesOf("bestPathCost")
		rng := rand.New(rand.NewSource(7))
		qs := make([]programQuery, 30)
		for i := range qs {
			qs[i] = programQuery{ref: targets[rng.Intn(len(targets))], issuer: types.NodeID(rng.Intn(topo.N))}
		}
		checkQueryProgram(t, decl, native, qs)
	})
}

type programQuery struct {
	issuer types.NodeID
	ref    core.TupleRef
}

// queryProgramClusters builds and converges the declarative and the native
// MINCOST cluster on topo.
func queryProgramClusters(t *testing.T, topo *topology.Topology) (decl, native *core.Cluster) {
	t.Helper()
	rw, err := ndlog.ProvenanceRewrite(apps.MinCost())
	if err != nil {
		t.Fatal(err)
	}
	query, err := ndlog.Parse(apps.QueryProgramSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog := &ndlog.Program{Rules: append(rw.Rules, query.Rules...), Facts: rw.Facts}
	return drivertest.Simnet(t, core.Config{Topo: topo, Prog: prog, Mode: engine.ProvNone}).Cluster,
		drivertest.Simnet(t, core.Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference}).Cluster
}

func runToFixpoint(t *testing.T, c *core.Cluster) {
	t.Helper()
	if _, err := c.RunToFixpoint(); err != nil {
		t.Fatal(err)
	}
}

// checkQueryProgram issues each query on both clusters, one at a time, and
// compares the answers.
func checkQueryProgram(t *testing.T, decl, native *core.Cluster, qs []programQuery) {
	t.Helper()
	for i, q := range qs {
		want, err := provquery.DecodePolynomial(ask(t, native, provquery.Polynomial{}, q.issuer, q.ref))
		if err != nil {
			t.Fatal(err)
		}

		qid := types.HashString(fmt.Sprintf("query %d", i))
		decl.InjectEvent(types.NewTuple("eProvQuery",
			types.Node(q.ref.Loc), types.IDVal(qid), types.IDVal(q.ref.VID), types.Node(q.issuer)))
		runToFixpoint(t, decl)
		var answers []types.Tuple
		for _, tu := range decl.Hosts[q.issuer].Engine.Tuples("queryResult") {
			if tu.Args[1].AsID() == qid {
				answers = append(answers, tu)
			}
		}
		if len(answers) != 1 {
			t.Fatalf("query %d for %s: %d queryResult rows, want 1: %v", i, q.ref.Tuple, len(answers), answers)
		}
		got, err := provquery.DecodePolynomial(answers[0].Args[3].AsProv())
		if err != nil {
			t.Fatalf("query %d for %s: %v", i, q.ref.Tuple, err)
		}
		if canon(got) != canon(want) {
			t.Errorf("query %d for %s: NDlog program answered %s, native processor %s", i, q.ref.Tuple, got, want)
		}
	}
	t.Logf("NDlog-executed §5.1 query program matched the native processor on %d queries", len(qs))
}
