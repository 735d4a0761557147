package core

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/provquery"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/types"
)

// TestQueriesDuringChurn floods the network with provenance queries while
// links churn underneath them. In-flight traversals may race retractions
// (the paper's cache-invalidation setting); the required behaviour is
// liveness and sanity — every query completes with a non-negative count —
// not exact answers, which are undefined mid-churn.
func TestQueriesDuringChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	topo := topology.TransitStub(topology.TransitStubParams{
		Domains: 1, TransitPerDom: 2, StubsPerTransit: 2, NodesPerStub: 6, ExtraStubEdges: 3,
	}, rng)
	for _, cache := range []bool{false, true} {
		c, err := NewCluster(Config{
			Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference,
			UDF: provquery.Derivations(), CacheOn: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunToFixpoint(); err != nil {
			t.Fatal(err)
		}

		issued, completed := 0, 0
		wrong := 0
		wRng := rand.New(rand.NewSource(17))
		start := c.Sim.Now()
		// Churn adds fresh links and removes only links it added itself:
		// the original topology stays intact, so the network never
		// partitions and strict query liveness must hold. (Partition-drop
		// behaviour is exercised separately by the churn experiments.)
		var added []topology.Link
		for k := 0; k < 40; k++ {
			at := start + simnet.Time(k)*25*simnet.Millisecond
			k := k
			c.Sim.At(at, func() {
				if k%4 == 3 {
					if len(added) > 0 && wRng.Intn(2) == 0 {
						l := added[len(added)-1]
						added = added[:len(added)-1]
						c.RemoveLink(l)
						return
					}
					u := types.NodeID(wRng.Intn(topo.N))
					v := types.NodeID(wRng.Intn(topo.N))
					if u == v || c.Net.HasLink(u, v) {
						return
					}
					l := topology.Link{U: u, V: v, Class: topology.ClassStub, Cost: 1}
					added = append(added, l)
					c.AddLink(l)
					return
				}
				targets := c.TuplesOf("bestPathCost")
				if len(targets) == 0 {
					return
				}
				ref := targets[wRng.Intn(len(targets))]
				issued++
				c.Query(types.NodeID(wRng.Intn(topo.N)), ref.VID, ref.Loc, func(p []byte) {
					completed++
					if provquery.DecodeCount(p) < 0 {
						wrong++
					}
				})
			})
		}
		if _, err := c.RunToFixpoint(); err != nil {
			t.Fatalf("cache=%v: %v", cache, err)
		}
		if completed != issued {
			t.Errorf("cache=%v: %d/%d queries completed", cache, completed, issued)
		}
		if wrong != 0 {
			t.Errorf("cache=%v: %d malformed results", cache, wrong)
		}

		// After churn settles, answers must be exact again: compare a
		// sample against the derivation count folded over the stores.
		graph := storeGraph(c)
		targets := c.TuplesOf("bestPathCost")
		for q := 0; q < 20 && q < len(targets); q++ {
			ref := targets[wRng.Intn(len(targets))]
			var got int64 = -1
			c.Query(ref.Loc, ref.VID, ref.Loc, func(p []byte) { got = provquery.DecodeCount(p) })
			c.Sim.Run()
			want := algebra.Eval(graph.Polynomial(ref.VID), algebra.Counting())
			if got != want {
				t.Errorf("cache=%v %s: post-churn count %d, oracle %d", cache, ref.Tuple, got, want)
			}
		}
	}
}
