package core_test

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/drivertest"
	"repro/internal/engine"
	"repro/internal/provquery"
	"repro/internal/topology"
	"repro/internal/types"
)

// figure3Cluster runs MINCOST on the paper's Figure 3 topology.
func figure3Cluster(t *testing.T, mode engine.ProvMode) *core.Cluster {
	t.Helper()
	c := drivertest.Simnet(t, core.Config{
		Topo: topology.Figure3(),
		Prog: apps.MinCost(),
		Mode: mode,
	}).Cluster
	return c
}

// useUDF sets every query processor of c to compute udf; they start with
// POLYNOMIAL.
func useUDF(c *core.Cluster, udf provquery.UDF) {
	for _, h := range c.Hosts {
		h.Query.UDF = udf
	}
}

var (
	a  = types.NodeID(0)
	b  = types.NodeID(1)
	cc = types.NodeID(2)
	d  = types.NodeID(3)
)

func TestMinCostFigure3BestPaths(t *testing.T) {
	c := figure3Cluster(t, engine.ProvNone)
	want := map[[2]types.NodeID]int64{
		{a, b}: 3, {a, cc}: 5, {a, d}: 8,
		{b, a}: 3, {b, cc}: 2, {b, d}: 5,
		{cc, a}: 5, {cc, b}: 2, {cc, d}: 3,
		{d, a}: 8, {d, b}: 5, {d, cc}: 3,
	}
	for pair, cost := range want {
		ref, ok := c.FindTuple(apps.BestPathCostTuple(pair[0], pair[1], cost))
		if !ok {
			t.Errorf("missing bestPathCost(@%s,%s,%d)", pair[0], pair[1], cost)
			continue
		}
		if ref.Loc != pair[0] {
			t.Errorf("bestPathCost(@%s,%s,%d) stored at %s", pair[0], pair[1], cost, ref.Loc)
		}
	}
}

func TestMinCostFigure3ProvTable(t *testing.T) {
	c := figure3Cluster(t, engine.ProvReference)

	// Table 1: pathCost(@a,c,5) has two derivations, one local (sp1@a),
	// one remote (sp2@b).
	pc := types.NewTuple("pathCost", types.Node(a), types.Node(cc), types.Int(5))
	derivs := c.Hosts[a].Engine.Store.Derivations(pc.VID())
	if len(derivs) != 2 {
		t.Fatalf("pathCost(@a,c,5): got %d derivations, want 2: %+v", len(derivs), derivs)
	}
	locs := map[types.NodeID]bool{}
	for _, e := range derivs {
		locs[e.RLoc] = true
		if e.RID.IsZero() {
			t.Errorf("pathCost derivation has null RID")
		}
	}
	if !locs[a] || !locs[b] {
		t.Errorf("pathCost(@a,c,5) derivation locations = %v, want {a,b}", locs)
	}

	// Base tuple rows carry the null RID.
	link := types.NewTuple("link", types.Node(a), types.Node(cc), types.Int(5))
	ld := c.Hosts[a].Engine.Store.Derivations(link.VID())
	if len(ld) != 1 || !ld[0].RID.IsZero() {
		t.Fatalf("link(@a,c,5): want single null-RID derivation, got %+v", ld)
	}

	// Table 2: the sp2 execution at b lists link(@b,a,3) and
	// bestPathCost(@b,c,2) as inputs.
	var found bool
	for _, e := range derivs {
		if e.RLoc != b {
			continue
		}
		re, ok := c.Hosts[b].Engine.Store.RuleExecOf(e.RID)
		if !ok {
			t.Fatalf("ruleExec %s missing at b", e.RID.Short())
		}
		if re.Rule != "sp2" {
			t.Errorf("rule label = %s, want sp2", re.Rule)
		}
		wantInputs := map[types.ID]bool{
			types.NewTuple("link", types.Node(b), types.Node(a), types.Int(3)).VID():          true,
			types.NewTuple("bestPathCost", types.Node(b), types.Node(cc), types.Int(2)).VID(): true,
		}
		if len(re.VIDList) != 2 {
			t.Fatalf("sp2 inputs = %d, want 2", len(re.VIDList))
		}
		for _, vid := range re.VIDList {
			if !wantInputs[vid] {
				t.Errorf("unexpected sp2 input %s", vid.Short())
			}
		}
		found = true
	}
	if !found {
		t.Fatalf("no sp2@b rule execution found")
	}
}

func TestPolynomialQueryFigure3(t *testing.T) {
	c := figure3Cluster(t, engine.ProvReference)
	ref, ok := c.FindTuple(apps.BestPathCostTuple(a, cc, 5))
	if !ok {
		t.Fatalf("bestPathCost(@a,c,5) missing")
	}
	var result []byte
	c.Query(d, ref.VID, ref.Loc, func(payload []byte) { result = payload })
	if _, err := c.RunToFixpoint(); err != nil {
		t.Fatalf("query run: %v", err)
	}
	if result == nil {
		t.Fatalf("query did not complete")
	}
	expr, err := provquery.DecodePolynomial(result)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got := expr.String()
	// The provenance polynomial must mention exactly the three base links
	// of Figure 4: α=link(@a,c,5), β=link(@b,a,3), γ=link(@b,c,2).
	for _, lit := range []string{"link(@a,c,5)", "link(@b,a,3)", "link(@b,c,2)"} {
		if !strings.Contains(got, lit) {
			t.Errorf("polynomial %q missing literal %s", got, lit)
		}
	}
	if strings.Contains(got, "link(@b,d,5)") || strings.Contains(got, "link(@c,d,3)") {
		t.Errorf("polynomial %q mentions unrelated links", got)
	}
	bases := expr.BaseSet()
	if len(bases) != 3 {
		t.Errorf("base set size = %d, want 3 (%q)", len(bases), got)
	}
	t.Logf("polynomial: %s", got)
}

func TestDerivationCountQueryFigure3(t *testing.T) {
	c := drivertest.Simnet(t, core.Config{
		Topo: topology.Figure3(),
		Prog: apps.MinCost(),
		Mode: engine.ProvReference,
	}).Cluster
	useUDF(c, provquery.Derivations())
	ref, ok := c.FindTuple(apps.BestPathCostTuple(a, cc, 5))
	if !ok {
		t.Fatalf("bestPathCost(@a,c,5) missing")
	}
	var count int64 = -1
	c.Query(a, ref.VID, ref.Loc, func(payload []byte) { count = provquery.DecodeCount(payload) })
	if _, err := c.RunToFixpoint(); err != nil {
		t.Fatal(err)
	}
	// bestPathCost(@a,c,5) <- pathCost(@a,c,5), which has two derivations.
	if count != 2 {
		t.Fatalf("derivation count = %d, want 2", count)
	}
}

func TestNodeSetQueryFigure3(t *testing.T) {
	c := drivertest.Simnet(t, core.Config{
		Topo: topology.Figure3(),
		Prog: apps.MinCost(),
		Mode: engine.ProvReference,
	}).Cluster
	useUDF(c, provquery.NodeSet())
	ref, _ := c.FindTuple(apps.BestPathCostTuple(a, cc, 5))
	var nodes []types.NodeID
	c.Query(a, ref.VID, ref.Loc, func(payload []byte) { nodes = provquery.DecodeNodeSet(payload) })
	if _, err := c.RunToFixpoint(); err != nil {
		t.Fatal(err)
	}
	// The paper's node-level provenance for bestPathCost(@a,c,5) is
	// <a, b->a>: nodes a and b participate.
	if len(nodes) != 2 || nodes[0] != a || nodes[1] != b {
		t.Fatalf("node set = %v, want [a b]", nodes)
	}
}

// TestQueryCacheKeyedByUDF: the §6.1 cache tags each answer with the UDF that
// computed it. Two DERIVABILITY UDFs share a name but not a trust predicate,
// so after swapping one for the other a cache-on cluster must answer as an
// uncached one does, not serve the first UDF's cached answers.
func TestQueryCacheKeyedByUDF(t *testing.T) {
	derivable := func(cacheOn bool, udfs ...provquery.UDF) (last bool) {
		c := drivertest.Simnet(t, core.Config{Topo: topology.Figure3(), Prog: apps.MinCost(),
			Mode: engine.ProvReference, CacheOn: cacheOn}).Cluster
		ref, _ := c.FindTuple(apps.BestPathCostTuple(a, cc, 5))
		for _, u := range udfs {
			useUDF(c, u)
			c.Query(d, ref.VID, ref.Loc, func(payload []byte) { last = provquery.DecodeBool(payload) })
			if _, err := c.RunToFixpoint(); err != nil {
				t.Fatal(err)
			}
		}
		return last
	}
	trustAll := provquery.Derivability(nil)
	trustNone := provquery.Derivability(func(algebra.Base) bool { return false })
	if !derivable(true, trustAll) {
		t.Fatal("vacuous: bestPathCost(@a,c,5) not derivable under full trust")
	}
	if got, want := derivable(true, trustAll, trustNone), derivable(false, trustNone); got != want {
		t.Errorf("cache-on answer after the trust swap = %v, uncached answer %v", got, want)
	}
}
