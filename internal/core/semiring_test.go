package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/provquery"
	"repro/internal/types"
)

// image is a representation seen as a homomorphic image of POLYNOMIAL: the
// UDF computing it in the network, and whether a payload that UDF answered
// is the polynomial folded in the representation's semiring.
type image struct {
	udf   provquery.UDF
	agree func(poly *algebra.Expr, payload []byte) bool
}

// images returns DERIVATIONS, DERIVABILITY, NODESET and BDD for cluster c.
func images(c *core.Cluster) []image {
	return []image{
		{provquery.Derivations(), func(poly *algebra.Expr, p []byte) bool {
			return provquery.DecodeCount(p) == algebra.Eval(poly, algebra.Counting())
		}},
		{provquery.Derivability(nil), func(poly *algebra.Expr, p []byte) bool {
			return provquery.DecodeBool(p) == algebra.Eval(poly, algebra.Boolean())
		}},
		{provquery.NodeSet(), func(poly *algebra.Expr, p []byte) bool {
			return slices.Equal(provquery.DecodeNodeSet(p), algebra.SortedNodes(poly))
		}},
		{provquery.BDD(driver.BaseVar(c.Engines())), func(poly *algebra.Expr, p []byte) bool {
			r := algebra.BDD(bdd.New(), driver.BaseVar(c.Engines())) // canonical ROBDDs in one manager: equal functions are equal refs
			got, ok := r.Decode(p)
			return ok && got == algebra.Eval(poly, r.Semiring)
		}},
	}
}

// ask answers one query for ref under udf, issued at node from.
func ask(t *testing.T, c *core.Cluster, udf provquery.UDF, from types.NodeID, ref core.TupleRef) []byte {
	t.Helper()
	useUDF(c, udf)
	var out []byte
	answered := false
	c.Query(from, ref.VID, ref.Loc, func(p []byte) { out, answered = p, true })
	c.Sim.Run()
	if !answered {
		t.Fatalf("%s query for %s never returned", udf.Name(), ref.Tuple)
	}
	return out
}

// TestUDFsAreImagesOfPolynomial is the commuting square of semiring
// provenance (Green et al., PODS 2007) on the distributed query path: on a
// converged transit-stub MINCOST cluster, for 300 seeded queries under BFS
// and DFS with the §6.1 cache off and on, every representation's answer
// equals the POLYNOMIAL answer to the same query folded in that
// representation's semiring. Each representation replays the queries as one
// batch, so with the cache on it is served from its own warm entries.
func TestUDFsAreImagesOfPolynomial(t *testing.T) {
	c := convergedTransitStub(t, core.Config{})
	targets := c.TuplesOf("bestPathCost")
	type query struct {
		from types.NodeID
		ref  core.TupleRef
	}
	rng := rand.New(rand.NewSource(7))
	queries := make([]query, 300)
	for i := range queries {
		queries[i] = query{types.NodeID(rng.Intn(c.Topo.N)), targets[rng.Intn(len(targets))]}
	}
	imgs := images(c)
	for _, strat := range []provquery.Strategy{provquery.BFS, provquery.DFS} {
		for _, cache := range []bool{false, true} {
			for _, h := range c.Hosts {
				h.Query.Strategy, h.Query.CacheOn = strat, cache
			}
			polys := make([]*algebra.Expr, len(queries))
			for i, q := range queries {
				poly, err := provquery.DecodePolynomial(ask(t, c, provquery.Polynomial{}, q.from, q.ref))
				if err != nil {
					t.Fatal(err)
				}
				polys[i] = poly
			}
			for _, img := range imgs {
				bad := 0
				for i, q := range queries {
					if p := ask(t, c, img.udf, q.from, q.ref); !img.agree(polys[i], p) {
						if bad++; bad <= 3 {
							t.Errorf("%s cache=%v query %d for %s: %s answer %x is not the image of %s",
								strat, cache, i, q.ref.Tuple, img.udf.Name(), p, polys[i])
						}
					}
				}
			}
		}
	}
}
