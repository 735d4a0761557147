// Overlay forensics on the CHORD routing workload (ISSUE 8).
//
// A 16-node overlay elects successors on a 2^20 identifier ring and
// forwards a recursive lookup hop by hop to the key's owner. The alive
// tuples feeding successor election are soft state: the owner's liveness
// pair lives on a short TTL and is never refreshed, so its expiry retracts
// a liveness fact mid-run. DRed unwinds the election, the lookup
// re-resolves against the new successor, and provenance answers the
// forensic question "which nodes' state did this resolution depend on?"
// before and after the failure.
//
// Run with: go run ./examples/chord
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/provquery"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/types"
)

// ringDist and between mirror the f_ringdist/f_between builtins; succOf
// and chainTo mirror the program's election and forwarding, so the
// operator can predict where a lookup resolves before issuing it.
func ringDist(a, b int64) int64 {
	d := (b - a) % apps.ChordSpace
	if d < 0 {
		d += apps.ChordSpace
	}
	if d == 0 {
		d = apps.ChordSpace
	}
	return d
}

func between(k, a, b int64) bool {
	switch {
	case a == b:
		return true
	case a < b:
		return a < k && k <= b
	default:
		return k > a || k <= b
	}
}

func succOf(topo *topology.Topology, n types.NodeID) types.NodeID {
	best, bestD := types.NodeID(-1), int64(-1)
	for _, nb := range topo.Adjacency()[n] {
		if d := ringDist(apps.ChordID(n), apps.ChordID(nb.Node)); bestD < 0 || d < bestD {
			best, bestD = nb.Node, d
		}
	}
	return best
}

func chainTo(topo *topology.Topology, origin types.NodeID, key int64) []types.NodeID {
	chain := []types.NodeID{origin}
	n := origin
	for {
		s := succOf(topo, n)
		if between(key, apps.ChordID(n), apps.ChordID(s)) {
			return chain
		}
		n = s
		chain = append(chain, n)
	}
}

func main() {
	rng := rand.New(rand.NewSource(4))
	topo := topology.Ring(16, rng)
	origin := types.NodeID(8)

	// Pick the key whose forwarding chain from the origin is deepest — the
	// lookup worth tracing.
	var key int64
	var chain []types.NodeID
	for v := 0; v < topo.N; v++ {
		k := apps.ChordID(types.NodeID(v))
		if c := chainTo(topo, origin, k); len(c) > len(chain) {
			key, chain = k, c
		}
	}
	owner := chain[len(chain)-1]
	ownerSucc := succOf(topo, owner)

	// The owner's liveness view of its successor is announced through the
	// soft-state layer (25ms TTL, never refreshed); everything else is
	// static EDB.
	vU := apps.AliveTuple(owner, ownerSucc)
	vV := apps.AliveTuple(ownerSucc, owner)
	base := apps.ChordBase(topo)
	for n, tuples := range base {
		kept := tuples[:0]
		for _, tu := range tuples {
			if !tu.Equal(vU) && !tu.Equal(vV) {
				kept = append(kept, tu)
			}
		}
		base[n] = kept
	}

	cluster, err := core.NewCluster(core.Config{
		Topo: topo, Prog: apps.Chord(), Mode: engine.ProvReference,
		NoLinkTuples: true, Base: base,
	})
	if err != nil {
		log.Fatal(err)
	}
	ss := core.NewSoftState(cluster, 25*simnet.Millisecond)
	cluster.Sim.At(0, func() {
		ss.Announce(owner, vU)
		ss.Announce(ownerSucc, vV)
	})
	cluster.Sim.At(simnet.Millisecond, func() {
		cluster.InsertBase(apps.LookupTuple(origin, key, origin))
	})

	if err := cluster.RunUntil(20 * simnet.Millisecond); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overlay of %d nodes converged; key %d issued from node %s\n", topo.N, key, origin)
	fmt.Printf("predicted forwarding chain: %v (owner %s, successor %s)\n", chain, owner, ownerSucc)
	printResolution(cluster, key)

	// The TTL passes with no refresh: the expiry retracts both alive
	// tuples, the election unwinds, and the lookup re-resolves.
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter soft-state expiry (%d expirations, alive(%s,%s) gone):\n",
		ss.Expirations, owner, ownerSucc)
	printResolution(cluster, key)
}

// printResolution finds the lookupRes for key and traces the nodes its
// derivation passed through.
func printResolution(c *core.Cluster, key int64) {
	var ref core.TupleRef
	found := false
	for _, r := range c.TuplesOf("lookupRes") {
		if r.Tuple.Args[1].AsInt() == key {
			ref, found = r, true
		}
	}
	if !found {
		log.Fatal("lookup did not resolve")
	}
	fmt.Printf("  resolved at node %s: %s\n", ref.Loc, ref.Tuple)
	for _, h := range c.Hosts {
		h.Query.UDF = provquery.NodeSet()
	}
	var nodes []types.NodeID
	c.Query(ref.Loc, ref.VID, ref.Loc, func(p []byte) { nodes = provquery.DecodeNodeSet(p) })
	if _, err := c.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  provenance spans %d nodes: %v\n", len(nodes), nodes)
}
