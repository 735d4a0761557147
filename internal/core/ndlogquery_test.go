package core

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/provquery"
	"repro/internal/topology"
	"repro/internal/types"
)

// TestNDlogQueryProgramExecution runs the paper's §5.1 distributed query
// program *as NDlog through the engine itself* — protocol, provenance
// maintenance and provenance querying all expressed declaratively — and
// checks the returned derivation counts against the native query
// processor on reference-mode provenance.
//
// The pipeline under test: MINCOST → Algorithm-1 provenance rewrite (with
// relational rule inputs) → + the executable counting query program → one
// engine execution; queries are injected as eProvQuery events.
func TestNDlogQueryProgramExecution(t *testing.T) {
	topo := topology.Figure3()

	// Declarative cluster: rewritten MINCOST + query rules, no native
	// provenance support at all.
	rw, err := ndlog.ProvenanceRewriteOpts(apps.MinCost(), ndlog.RewriteOptions{RelationalInputs: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := ndlog.Parse(apps.CountQueryProgramSrc)
	if err != nil {
		t.Fatal(err)
	}
	combined := &ndlog.Program{
		Rules: append(append([]*ndlog.Rule{}, rw.Rules...), full.Rules...),
		Facts: rw.Facts,
	}
	declarative, err := NewCluster(Config{Topo: topo, Prog: combined, Mode: engine.ProvNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := declarative.RunToFixpoint(); err != nil {
		t.Fatal(err)
	}

	// Native cluster: original MINCOST, engine-level provenance, native
	// #DERIVATIONS query processor.
	native, err := NewCluster(Config{
		Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference,
		UDF: provquery.Derivations(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := native.RunToFixpoint(); err != nil {
		t.Fatal(err)
	}

	issuer := types.NodeID(3) // node d issues every query
	checked := 0
	for _, ref := range native.TuplesOf("bestPathCost") {
		// Native answer.
		var want int64 = -1
		native.Query(issuer, ref.VID, ref.Loc, func(p []byte) { want = provquery.DecodeCount(p) })
		native.Sim.Run()
		if want < 0 {
			t.Fatalf("%s: native query incomplete", ref.Tuple)
		}

		// Declarative answer: inject eProvQuery(@loc, QID, VID, issuer) at
		// the tuple's node and read queryResult at the issuer.
		qid := types.HashString("q:" + ref.Tuple.String())
		ev := types.NewTuple("eProvQuery",
			types.Node(ref.Loc), types.IDVal(qid), types.IDVal(ref.VID), types.Node(issuer))
		declarative.InjectEvent(ev)
		if _, err := declarative.RunToFixpoint(); err != nil {
			t.Fatal(err)
		}
		got := int64(-1)
		for _, tu := range declarative.Hosts[issuer].Engine.Tuples("queryResult") {
			if tu.Args[1].AsID() == qid {
				got = tu.Args[3].AsInt()
			}
		}
		if got != want {
			t.Errorf("%s: NDlog query program returned %d, native processor %d", ref.Tuple, got, want)
		}
		checked++
	}
	if checked < 12 {
		t.Fatalf("only %d tuples checked", checked)
	}
	t.Logf("NDlog-executed §5.1 query program agreed with the native processor on %d tuples", checked)
}
