package core_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/drivertest"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/provquery"
	"repro/internal/topology"
	"repro/internal/types"
)

// CentralGraphOf builds the centralized query view from the server node's
// materialized prov/ruleExec relations (only meaningful under
// ProvCentralized).
func CentralGraphOf(c *core.Cluster) *provquery.CentralGraph {
	server := c.Hosts[engine.CentralServer].Engine
	return provquery.NewCentralGraph(server.Tuples("prov"), server.Tuples("ruleExec"))
}

// storeGraph builds the provenance graph of a distributed run from every
// host's store: the oracle the distributed query answers must fold to.
func storeGraph(c *core.Cluster) *provquery.CentralGraph {
	stores := make([]*provenance.Store, len(c.Hosts))
	for i, h := range c.Hosts {
		stores[i] = h.Engine.Store
	}
	return provquery.NewStoreGraph(stores...)
}

// canon renders a polynomial with base labels replaced by their VIDs and the
// kids of every sum and product sorted: two polynomials render alike iff
// they are equal up to base labels and derivation order.
func canon(e *algebra.Expr) string {
	if e.Op == algebra.OpBase {
		return e.Base.VID.Short() + "@" + e.Base.Node.String()
	}
	kids := make([]string, len(e.Kids))
	for i, k := range e.Kids {
		kids[i] = canon(k)
	}
	sort.Strings(kids)
	return fmt.Sprintf("%d<%s>(%s)", e.Op, e.Ann, strings.Join(kids, " "))
}

// TestCentralizedQueriesMatchDistributed: running MINCOST in centralized
// mode relays the full provenance graph to the server. On every tuple, the
// server's polynomial equals the distributed POLYNOMIAL answer up to base
// labels, and folded in each representation's semiring it equals that
// representation's distributed answer.
func TestCentralizedQueriesMatchDistributed(t *testing.T) {
	central := figure3Cluster(t, engine.ProvCentralized)
	graph := CentralGraphOf(central)
	if graph.NumVertices() == 0 {
		t.Fatal("server received no provenance rows")
	}

	ref := figure3Cluster(t, engine.ProvReference)
	distrustB := func(base algebra.Base) bool { return base.Node != b }
	imgs := append(images(ref), image{provquery.Derivability(distrustB), func(poly *algebra.Expr, p []byte) bool {
		return provquery.DecodeBool(p) == algebra.DerivableGiven(poly, distrustB)
	}})
	checked := 0
	for _, pred := range []string{"link", "pathCost", "bestPathCost"} {
		for _, target := range ref.TuplesOf(pred) {
			poly := graph.Polynomial(target.VID)
			dist, err := provquery.DecodePolynomial(ask(t, ref, provquery.Polynomial{}, target.Loc, target))
			if err != nil {
				t.Fatal(err)
			}
			if canon(poly) != canon(dist) {
				t.Errorf("%s: central polynomial %s, distributed %s", target.Tuple, poly, dist)
			}
			for _, img := range imgs {
				if p := ask(t, ref, img.udf, target.Loc, target); !img.agree(poly, p) {
					t.Errorf("%s: distributed %s answer %x disagrees with central %s", target.Tuple, img.udf.Name(), p, poly)
				}
			}
			checked++
		}
	}
	if checked < 30 {
		t.Fatalf("only %d tuples checked", checked)
	}

	// The §3 running example: bestPathCost(@a,c,5) involves a and b, and is
	// derivable trusting only a but not trusting only d.
	target, _ := ref.FindTuple(apps.BestPathCostTuple(0, 2, 5))
	poly := graph.Polynomial(target.VID)
	if nodes := algebra.SortedNodes(poly); !slices.Equal(nodes, []types.NodeID{a, b}) {
		t.Errorf("central node set = %v, want [a b]", nodes)
	}
	if !algebra.DerivableGiven(poly, func(base algebra.Base) bool { return base.Node == a }) {
		t.Error("should be derivable trusting only a")
	}
	if algebra.DerivableGiven(poly, func(base algebra.Base) bool { return base.Node == d }) {
		t.Error("should not be derivable trusting only d")
	}
}

// TestCentralizedDeletionPropagates: retracting a base tuple must also
// retract the server's copies of dependent provenance rows.
func TestCentralizedDeletionPropagates(t *testing.T) {
	c := figure3Cluster(t, engine.ProvCentralized)
	before := CentralGraphOf(c).NumVertices()

	// Remove the direct a-c link; pathCost(@a,c,5) keeps its via-b
	// derivation but the sp1 derivation must vanish at the server.
	link := c.Topo.Links[1] // a-c, cost 5
	c.RemoveLink(link)
	if _, err := c.RunToFixpoint(); err != nil {
		t.Fatal(err)
	}
	graph := CentralGraphOf(c)
	if graph.NumVertices() >= before {
		t.Errorf("server vertices %d -> %d; expected shrinkage", before, graph.NumVertices())
	}
	pc := types.NewTuple("pathCost", types.Node(0), types.Node(2), types.Int(5))
	if got := algebra.Eval(graph.Polynomial(pc.VID()), algebra.Counting()); got != 1 {
		t.Errorf("pathCost(@a,c,5) central count after deletion = %d, want 1", got)
	}
}

// TestCentralGraphCyclicProvenance: p and q derive each other, so the
// provenance graph has a cycle. The central walk cuts a vertex already on
// its path, so each tuple counts its one cycle-free proof instead of the
// walk recursing until the stack overflows. The graph built from a
// reference-mode run's stores takes the same cut and agrees with the
// server's.
func TestCentralGraphCyclicProvenance(t *testing.T) {
	prog, err := ndlog.Parse("r1 q(@X,A) :- p(@X,A).\nr2 p(@X,A) :- q(@X,A).\n")
	if err != nil {
		t.Fatal(err)
	}
	p := types.NewTuple("p", types.Node(0), types.Int(1))
	q := types.NewTuple("q", types.Node(0), types.Int(1))
	run := func(mode engine.ProvMode) *core.Cluster {
		c := drivertest.Simnet(t, core.Config{
			Topo: topology.Figure3(), Prog: prog, Mode: mode, NoLinkTuples: true,
			Base: map[types.NodeID][]types.Tuple{0: {p}},
		}).Cluster
		return c
	}
	central := CentralGraphOf(run(engine.ProvCentralized))
	stores := storeGraph(run(engine.ProvReference))
	for _, tu := range []types.Tuple{p, q} {
		want := algebra.Eval(central.Polynomial(tu.VID()), algebra.Counting())
		if want != 1 {
			t.Errorf("%s: central count %d, want 1", tu, want)
		}
		if got := algebra.Eval(stores.Polynomial(tu.VID()), algebra.Counting()); got != want {
			t.Errorf("%s: store graph count %d, central %d", tu, got, want)
		}
	}
}

// TestStoreGraphSurvivesStoreWrites: a graph built from a converged run's
// stores keeps its own copy of every rule execution's inputs. Every ruleExec
// row of every store is then removed — its table's last row moves into its
// place — and added back at the table's end, which leaves each store's rows
// as they were at other positions. Folded under Counting, the retained
// graph must answer as before on every tuple.
func TestStoreGraphSurvivesStoreWrites(t *testing.T) {
	c := figure3Cluster(t, engine.ProvReference)
	graph := storeGraph(c)
	counts := func() map[types.ID]int64 {
		got := map[types.ID]int64{}
		for _, pred := range []string{"link", "pathCost", "bestPathCost"} {
			for _, tu := range c.TuplesOf(pred) {
				got[tu.VID] = algebra.Eval(graph.Polynomial(tu.VID), algebra.Counting())
			}
		}
		return got
	}
	before := counts()
	moved := 0
	for _, h := range c.Hosts {
		s := h.Engine.Store
		var rows []provenance.RuleExecEntry
		s.ForEachRuleExec(func(e provenance.RuleExecEntry) {
			e.VIDList = slices.Clone(e.VIDList)
			rows = append(rows, e)
		})
		for _, e := range rows {
			num := slices.IndexFunc(c.Prog.Rules, func(r *engine.CompiledRule) bool { return r.Label == e.Rule })
			inputs := make([]*provenance.Vertex, len(e.VIDList))
			for i, vid := range e.VIDList {
				inputs[i] = s.Lookup(vid)
			}
			for range e.Count {
				s.DelRuleExec(e.RID)
			}
			for range e.Count {
				s.AddRuleExec(e.RID, num, e.Rule, inputs)
			}
		}
		moved += len(rows)
	}
	if moved < 2 {
		t.Fatalf("vacuous: %d ruleExec rows to move", moved)
	}
	for vid, n := range counts() {
		if n != before[vid] {
			t.Errorf("%s: the retained graph counts %d derivations after the store writes, %d before", vid.Short(), n, before[vid])
		}
	}
}
