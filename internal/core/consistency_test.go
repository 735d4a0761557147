package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/apps"
	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/driver"
	"repro/internal/drivertest"
	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/provquery"
	"repro/internal/topology"
	"repro/internal/types"
)

// TestStrategiesAgreeOnRandomNetworks: BFS, DFS and an unreachable-threshold
// DFS must return identical results for any query, on random topologies.
func TestStrategiesAgreeOnRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		topo := topology.Ring(6+rng.Intn(10), rng)
		var results [3]map[string]int64
		for si, strat := range []provquery.Strategy{provquery.BFS, provquery.DFS, provquery.DFSThreshold} {
			c := drivertest.Simnet(t, core.Config{
				Topo:      topo,
				Prog:      apps.MinCost(),
				Mode:      engine.ProvReference,
				Strategy:  strat,
				Threshold: 1 << 40, // unreachable: full traversal
			}).Cluster
			useUDF(c, provquery.Derivations())
			res := map[string]int64{}
			qRng := rand.New(rand.NewSource(int64(trial)))
			targets := c.TuplesOf("bestPathCost")
			for q := 0; q < 15 && q < len(targets); q++ {
				ref := targets[qRng.Intn(len(targets))]
				key := ref.Tuple.String()
				c.Query(types.NodeID(qRng.Intn(topo.N)), ref.VID, ref.Loc, func(p []byte) {
					res[key] = provquery.DecodeCount(p)
				})
				c.Sim.Run()
			}
			results[si] = res
		}
		for k, v := range results[0] {
			if results[1][k] != v || results[2][k] != v {
				t.Fatalf("trial %d: %s counts disagree: BFS=%d DFS=%d THR=%d",
					trial, k, v, results[1][k], results[2][k])
			}
		}
	}
}

// TestCachingIsTransparent: with caching on, query results after arbitrary
// churn are identical to a cache-free cluster's results.
func TestCachingIsTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	topo := topology.Ring(10, rng)
	build := func(cache bool) *core.Cluster {
		c := drivertest.Simnet(t, core.Config{
			Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference, CacheOn: cache,
		}).Cluster
		useUDF(c, provquery.Derivations())
		return c
	}
	cached, plain := build(true), build(false)

	churn := func(c *core.Cluster, seed int64) {
		r := rand.New(rand.NewSource(seed))
		// Interleave queries (to populate caches) with link churn.
		for step := 0; step < 6; step++ {
			targets := c.TuplesOf("bestPathCost")
			for q := 0; q < 10; q++ {
				ref := targets[r.Intn(len(targets))]
				c.Query(types.NodeID(r.Intn(c.Topo.N)), ref.VID, ref.Loc, func([]byte) {})
			}
			c.Sim.Run()
			u := types.NodeID(r.Intn(c.Topo.N))
			v := types.NodeID(r.Intn(c.Topo.N))
			if u != v && !c.Net.HasLink(u, v) {
				l := topology.Link{U: u, V: v, Class: topology.ClassStub, Cost: 1}
				c.AddLink(l)
				c.Sim.Run()
				if step%2 == 0 {
					c.RemoveLink(l)
					c.Sim.Run()
				}
			}
		}
	}
	churn(cached, 7)
	churn(plain, 7)

	// Same final state, same query answers.
	qRng := rand.New(rand.NewSource(99))
	targets := cached.TuplesOf("bestPathCost")
	for q := 0; q < 25; q++ {
		ref := targets[qRng.Intn(len(targets))]
		var a, b int64 = -1, -2
		cached.Query(0, ref.VID, ref.Loc, func(p []byte) { a = provquery.DecodeCount(p) })
		cached.Sim.Run()
		plain.Query(0, ref.VID, ref.Loc, func(p []byte) { b = provquery.DecodeCount(p) })
		plain.Sim.Run()
		if a != b {
			t.Fatalf("%s: cached answer %d != plain answer %d", ref.Tuple, a, b)
		}
	}
	var hits int64
	for _, h := range cached.Hosts {
		hits += h.Query.CacheHits
	}
	if hits == 0 {
		t.Error("cache never hit; test exercised nothing")
	}
}

// TestValueModePayloadMatchesReferenceQuery is the cross-mode semantic
// invariant: the BDD a tuple carries in value-based mode encodes the same
// boolean derivability function that a distributed BDD query over
// reference-based provenance computes for the same tuple. The value-mode
// side runs on the simulator and over UDP, where every node process names
// its own base tuples' variables and shares nothing with the others.
func TestValueModePayloadMatchesReferenceQuery(t *testing.T) {
	for _, d := range valueDrivers {
		t.Run(d.name, func(t *testing.T) { compareValueAndReference(t, d.start, nil) })
	}
}

// TestValueModePayloadMatchesReferenceQueryAfterChurn repeats the
// cross-mode check after link churn, exercising value mode's payload
// *update* propagation (deletion shrinks payloads; re-addition grows them)
// against reference mode's recomputed traversals.
func TestValueModePayloadMatchesReferenceQueryAfterChurn(t *testing.T) {
	// Drop and restore a-b, and drop b-d permanently.
	churn := func(t *testing.T, d driver.Driver, topo *topology.Topology) {
		ab, bd := topo.Links[0], topo.Links[3]
		setLink(t, d, bd, false)
		setLink(t, d, ab, false)
		setLink(t, d, ab, true)
	}
	for _, d := range valueDrivers {
		t.Run(d.name, func(t *testing.T) { compareValueAndReference(t, d.start, churn) })
	}
}

// valueDrivers start a value-mode MINCOST cluster at its fixpoint on the
// simulator and over UDP.
var valueDrivers = []struct {
	name  string
	start func(t *testing.T, topo *topology.Topology) driver.Driver
}{
	{"simulator", func(t *testing.T, topo *topology.Topology) driver.Driver {
		return drivertest.Simnet(t, core.Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvValue})
	}},
	{"deploy", func(t *testing.T, topo *topology.Topology) driver.Driver {
		return drivertest.Deploy(t, deploy.Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvValue})
	}},
}

// setLink raises or drops a link's two tuples and waits for the next
// fixpoint.
func setLink(t *testing.T, d driver.Driver, l topology.Link, up bool) {
	t.Helper()
	for _, tu := range []types.Tuple{apps.LinkTuple(l.U, l.V, l.Cost), apps.LinkTuple(l.V, l.U, l.Cost)} {
		if up {
			d.Insert(tu)
		} else {
			d.Delete(tu)
		}
	}
	if err := d.Fixpoint(); err != nil {
		t.Fatal(err)
	}
}

func compareValueAndReference(t *testing.T, start func(*testing.T, *topology.Topology) driver.Driver,
	churn func(*testing.T, driver.Driver, *topology.Topology)) {
	t.Helper()
	topo := topology.Figure3()
	value := start(t, topo)
	refC := drivertest.Simnet(t, core.Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference})
	useUDF(refC.Cluster, provquery.BDD(driver.BaseVar(refC.Engines())))
	if churn != nil {
		churn(t, value, topo)
		churn(t, refC, topo)
	}
	engines := value.Engines()

	// Compare every bestPathCost tuple's boolean function under random
	// base-link assignments, resolving each variable to its VID in its
	// owner's store, in each cluster.
	rng := rand.New(rand.NewSource(55))
	links := refC.TuplesOf("link")
	refStore := func(n types.NodeID) *provenance.Store { return refC.Hosts[n].Engine.Store }
	valueStore := func(n types.NodeID) *provenance.Store { return engines[n].Store }
	for _, ref := range refC.TuplesOf("bestPathCost") {
		var queryPayload []byte
		refC.Query(ref.Loc, ref.VID, ref.Loc, func(p []byte) { queryPayload = p })
		refC.Sim.Run()
		qm := bdd.New()
		qRoot, ok := algebra.BDD(qm, nil).Decode(queryPayload)
		if !ok {
			t.Fatalf("%s: BDD answer does not decode", ref.Tuple)
		}

		host := engines[ref.Loc]
		payload, ok := host.PayloadOf(ref.Tuple)
		if !ok {
			t.Fatalf("%s: no value-mode payload", ref.Tuple)
		}
		vm := bdd.New()
		vRoot, ok := algebra.BDD(vm, nil).Decode(host.Ring.Encode(payload))
		if !ok {
			t.Fatalf("%s: value-mode payload does not round-trip", ref.Tuple)
		}

		for trial := 0; trial < 32; trial++ {
			present := map[types.ID]bool{}
			for _, l := range links {
				present[l.VID] = rng.Intn(2) == 0
			}
			qAssign := assignFor(t, qm.Support(qRoot), refStore, present)
			vAssign := assignFor(t, vm.Support(vRoot), valueStore, present)
			if qm.Eval(qRoot, qAssign) != vm.Eval(vRoot, vAssign) {
				t.Fatalf("%s: value-mode payload and reference-mode query disagree", ref.Tuple)
			}
		}
	}
	drivertest.CheckQuiescent(t, value)
	drivertest.CheckQuiescent(t, refC)
}

// assignFor sets each variable as present says of the base tuple its
// owner's store numbered with it.
func assignFor(t *testing.T, vars []bdd.Var, store func(types.NodeID) *provenance.Store, present map[types.ID]bool) map[bdd.Var]bool {
	t.Helper()
	out := map[bdd.Var]bool{}
	for _, v := range vars {
		vid, ok := store(v.Node).BaseVID(v)
		if !ok {
			t.Fatalf("%s: no base tuple of that name at its owner", v)
		}
		out[v] = present[vid]
	}
	return out
}
