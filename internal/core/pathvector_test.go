package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/drivertest"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/topology"
	"repro/internal/types"
)

func TestPathVectorFigure3(t *testing.T) {
	c := drivertest.Simnet(t, core.Config{Topo: topology.Figure3(), Prog: apps.PathVector(), Mode: engine.ProvReference}).Cluster
	// Best path a->d: a,b,c? costs: a-b(3),b-c(2),c-d(3) = 8 via [a b c d];
	// alternatives: a-c-d = 5+3 = 8, a-b-d = 3+5 = 8. All cost 8; the
	// arg-min tie-break picks a deterministic one. Check cost and a valid
	// path shape.
	var best types.Tuple
	found := false
	for _, ref := range c.TuplesOf("bestPath") {
		if ref.Tuple.Args[0].AsNode() == a && ref.Tuple.Args[1].AsNode() == d {
			best = ref.Tuple
			found = true
		}
	}
	if !found {
		t.Fatalf("bestPath(@a,d,...) missing")
	}
	if got := best.Args[2].AsInt(); got != 8 {
		t.Fatalf("best cost a->d = %d, want 8", got)
	}
	path := best.Args[3].AsList()
	if path[0].AsNode() != a || path[len(path)-1].AsNode() != d {
		t.Fatalf("path %v does not run a->d", best.Args[3])
	}
	// bestHop must agree with the path's second element.
	hopFound := false
	for _, ref := range c.TuplesOf("bestHop") {
		if ref.Tuple.Args[0].AsNode() == a && ref.Tuple.Args[1].AsNode() == d {
			hopFound = true
			if !ref.Tuple.Args[2].Equal(path[1]) {
				t.Fatalf("bestHop %v != path second element %v", ref.Tuple.Args[2], path[1])
			}
		}
	}
	if !hopFound {
		t.Fatalf("bestHop(@a,d,...) missing")
	}
}

func TestPacketForwardDelivery(t *testing.T) {
	c := drivertest.Simnet(t, core.Config{Topo: topology.Figure3(), Prog: apps.PacketForward(), Mode: engine.ProvReference}).Cluster
	// Send a packet a -> d and check delivery.
	c.InjectEvent(apps.PacketTuple(a, a, d, 64))
	if _, err := c.RunToFixpoint(); err != nil {
		t.Fatal(err)
	}
	recvd := false
	for _, ref := range c.TuplesOf("recvPacket") {
		if ref.Loc == d && ref.Tuple.Args[1].AsNode() == a && ref.Tuple.Args[2].AsNode() == d {
			recvd = true
		}
	}
	if !recvd {
		t.Fatalf("packet a->d not delivered")
	}
}

// bestSnapshot lists the cluster's visible tuples of pred, in canonical
// order.
func bestSnapshot(c *core.Cluster, pred string) []string {
	var out []string
	for _, ref := range c.TuplesOf(pred) {
		out = append(out, ref.Tuple.String())
	}
	slices.Sort(out)
	return out
}

// TestChurnIncrementalEqualsScratch applies a random add/delete link
// sequence incrementally and checks the final state equals a from-scratch
// evaluation of the final topology — the correctness invariant of PSN
// incremental maintenance with provenance (§4.2), which on the simulator runs
// the two-phase retraction protocol through every node's rounds. Outside value
// mode the whole canonical state must be equal (engine.StateDigest: tuples,
// prov and ruleExec rows). Value mode compares the best-route tuples only: an
// owner numbers its base tuples' BDD variables by first use and never reuses
// an ordinal, so churned and scratch payloads name different variables.
func TestChurnIncrementalEqualsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := topology.TransitStub(topology.TransitStubParams{
		Domains: 1, TransitPerDom: 2, StubsPerTransit: 1, NodesPerStub: 4, ExtraStubEdges: 2,
	}, rng)

	for _, app := range []struct {
		name, best string
		src        func() *ndlog.Program
	}{{"mincost", "bestPathCost", apps.MinCost}, {"pathvector", "bestPath", apps.PathVector}} {
		for _, mode := range []engine.ProvMode{engine.ProvNone, engine.ProvReference, engine.ProvValue, engine.ProvCentralized} {
			cell := app.name + " " + mode.String()
			inc, err := core.NewCluster(core.Config{Topo: base, Prog: app.src(), Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inc.RunToFixpoint(); err != nil {
				t.Fatalf("%s initial: %v", cell, err)
			}

			// Apply churn: delete a few existing stub links, add a few new ones.
			final := &topology.Topology{N: base.N, Links: append([]topology.Link{}, base.Links...)}
			churnRng := rand.New(rand.NewSource(99))
			for step := 0; step < 8; step++ {
				if churnRng.Intn(2) == 0 && len(final.Links) > base.N {
					i := churnRng.Intn(len(final.Links))
					l := final.Links[i]
					final.Links = append(final.Links[:i], final.Links[i+1:]...)
					inc.RemoveLink(l)
				} else {
					u := types.NodeID(churnRng.Intn(base.N))
					v := types.NodeID(churnRng.Intn(base.N))
					if u == v || hasTopoLink(final, u, v) {
						continue
					}
					l := topology.Link{U: u, V: v, Class: topology.ClassStub, Cost: 1}
					final.Links = append(final.Links, l)
					inc.AddLink(l)
				}
				if _, err := inc.RunToFixpoint(); err != nil {
					t.Fatalf("%s churn step %d: %v", cell, step, err)
				}
			}

			scratch, err := core.NewCluster(core.Config{Topo: final, Prog: app.src(), Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := scratch.RunToFixpoint(); err != nil {
				t.Fatalf("%s scratch: %v", cell, err)
			}

			got, want := bestSnapshot(inc, app.best), bestSnapshot(scratch, app.best)
			if len(want) == 0 {
				t.Fatalf("%s: vacuous: no %s tuples from scratch", cell, app.best)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: %s incrementally\n%v\nwant\n%v", cell, app.best, got, want)
			}
			if mode == engine.ProvValue {
				continue
			}
			if d := engine.DiffStates(scratch.Engines(), inc.Engines()); d != "" {
				t.Errorf("%s: churned state differs from scratch (- scratch, + churned)\n%s", cell, d)
			}
		}
	}
}

func hasTopoLink(t *topology.Topology, u, v types.NodeID) bool {
	for _, l := range t.Links {
		if (l.U == u && l.V == v) || (l.U == v && l.V == u) {
			return true
		}
	}
	return false
}
