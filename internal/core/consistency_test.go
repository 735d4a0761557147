package core

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/apps"
	"repro/internal/bdd"
	"repro/internal/engine"
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
			c, err := NewCluster(Config{
				Topo:      topo,
				Prog:      apps.MinCost(),
				Mode:      engine.ProvReference,
				UDF:       provquery.Derivations(),
				Strategy:  strat,
				Threshold: 1 << 40, // unreachable: full traversal
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.RunToFixpoint(); err != nil {
				t.Fatal(err)
			}
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
	build := func(cache bool) *Cluster {
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
		return c
	}
	cached, plain := build(true), build(false)

	churn := func(c *Cluster, seed int64) {
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
// reference-based provenance computes for the same tuple.
func TestValueModePayloadMatchesReferenceQuery(t *testing.T) {
	compareValueAndReference(t, nil)
}

// TestValueModePayloadMatchesReferenceQueryAfterChurn repeats the
// cross-mode check after link churn, exercising value mode's payload
// *update* propagation (deletion shrinks payloads; re-addition grows them)
// against reference mode's recomputed traversals.
func TestValueModePayloadMatchesReferenceQueryAfterChurn(t *testing.T) {
	compareValueAndReference(t, func(c *Cluster) {
		// Drop and restore a-b, and drop b-d permanently.
		ab := c.Topo.Links[0]
		bd := c.Topo.Links[3]
		c.RemoveLink(bd)
		c.Sim.Run()
		c.RemoveLink(ab)
		c.Sim.Run()
		c.AddLink(ab)
		c.Sim.Run()
	})
}

func compareValueAndReference(t *testing.T, churn func(*Cluster)) {
	t.Helper()
	topo := topology.Figure3()

	valueC, err := NewCluster(Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvValue})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := valueC.RunToFixpoint(); err != nil {
		t.Fatal(err)
	}

	refC, err := NewCluster(Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference})
	if err != nil {
		t.Fatal(err)
	}
	refC.Cfg.UDF = provquery.BDD(refC.Alloc)
	for _, h := range refC.Hosts {
		h.Query.UDF = provquery.BDD(refC.Alloc)
	}
	if _, err := refC.RunToFixpoint(); err != nil {
		t.Fatal(err)
	}

	if churn != nil {
		churn(valueC)
		churn(refC)
		if err := valueC.Err(); err != nil {
			t.Fatal(err)
		}
		if err := refC.Err(); err != nil {
			t.Fatal(err)
		}
	}

	// Compare every bestPathCost tuple's boolean function under random
	// base-link assignments, resolving variables by VID through each
	// cluster's own allocator.
	rng := rand.New(rand.NewSource(55))
	links := refC.TuplesOf("link")
	for _, ref := range refC.TuplesOf("bestPathCost") {
		var queryPayload []byte
		refC.Query(ref.Loc, ref.VID, ref.Loc, func(p []byte) { queryPayload = p })
		refC.Sim.Run()
		qm := bdd.New()
		qRoot, ok := algebra.BDD(qm, refC.Alloc).Decode(queryPayload)
		if !ok {
			t.Fatalf("%s: BDD answer does not decode", ref.Tuple)
		}

		host := valueC.Hosts[ref.Loc].Engine
		payload, ok := host.PayloadOf(ref.Tuple)
		if !ok {
			t.Fatalf("%s: no value-mode payload", ref.Tuple)
		}
		vm := bdd.New()
		vRoot, ok := algebra.BDD(vm, valueC.Alloc).Decode(host.Ring.Encode(payload))
		if !ok {
			t.Fatalf("%s: value-mode payload does not round-trip", ref.Tuple)
		}

		for trial := 0; trial < 32; trial++ {
			present := map[types.ID]bool{}
			for _, l := range links {
				present[l.VID] = rng.Intn(2) == 0
			}
			qAssign := assignFor(refC.Alloc, present)
			vAssign := assignFor(valueC.Alloc, present)
			if qm.Eval(qRoot, qAssign) != vm.Eval(vRoot, vAssign) {
				t.Fatalf("%s: value-mode payload and reference-mode query disagree", ref.Tuple)
			}
		}
	}
}

func assignFor(alloc *algebra.VarAlloc, present map[types.ID]bool) map[int]bool {
	out := map[int]bool{}
	for v := 0; ; v++ {
		base, ok := alloc.BaseOf(v)
		if !ok {
			return out
		}
		out[v] = present[base.VID]
	}
}
