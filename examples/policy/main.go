// Policy forensics on the path-vector workload (ISSUE 8).
//
// A 12-node network runs POLICY: BGP-style path-vector routing where every
// directed adjacency needs an explicit policy atom to carry routes, so the
// best route is the cheapest *permitted* path, not the cheapest physical
// one. The operator inspects the busiest destination's Adj-RIB (the
// routeSet AGGLIST), asks provenance which nodes the selected route
// depends on, then withdraws the export policy the first hop rides on.
// DRed retracts every route through that adjacency, the MIN election
// re-runs, and the re-query shows the new dependency set — the "why did
// my traffic move?" question answered from provenance alone.
//
// Run with: go run ./examples/policy
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/provquery"
	"repro/internal/topology"
	"repro/internal/types"
)

func main() {
	rng := rand.New(rand.NewSource(9))
	topo := topology.Ring(12, rng)
	cluster, err := core.NewCluster(core.Config{
		Topo: topo, Prog: apps.Policy(), Mode: engine.ProvReference,
		Base: apps.PolicyTuples(topo),
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("POLICY converged on %d nodes, %d links, %d policy atoms\n",
		topo.N, len(topo.Links), countPolicies(topo))

	// The interesting (source, destination) pair: the one with the fattest
	// Adj-RIB, i.e. the most permitted alternative routes to fail over to.
	src, dst := fattestRIB(cluster)
	best, _ := bestRoute(cluster, src, dst)
	fmt.Printf("\nrichest Adj-RIB: %s -> %s with %d candidate routes\n",
		src, dst, countRoutes(cluster, src, dst))
	fmt.Printf("  selected: %s (cost %d, path %v)\n", best, best.Args[2].AsInt(), best.Args[3])
	fmt.Printf("  %s\n", routeSet(cluster, src, dst))
	fmt.Printf("  provenance spans nodes %v\n", nodeSet(cluster, best))

	// Withdraw the export policy the selected route enters src through:
	// hop's policy toward src. Every route crossing that adjacency dies.
	hop := nextHop(cluster, src, dst)
	w, ok := apps.ExportPolicy(hop, src)
	if !ok {
		log.Fatalf("selected route rode a forbidden adjacency %s->%s", hop, src)
	}
	fmt.Printf("\nnode %s withdraws its export policy toward %s...\n", hop, src)
	cluster.DeleteBase(apps.PolicyTuple(hop, src, w))
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}

	after, ok := bestRoute(cluster, src, dst)
	if !ok {
		log.Fatal("destination became unreachable")
	}
	fmt.Printf("rerouted: %s (cost %d, path %v)\n", after, after.Args[2].AsInt(), after.Args[3])
	fmt.Printf("  %s\n", routeSet(cluster, src, dst))
	fmt.Printf("  provenance spans nodes %v\n", nodeSet(cluster, after))
	if nextHop(cluster, src, dst) == hop {
		log.Fatal("forwarding still uses the withdrawn adjacency")
	}
	fmt.Printf("\nverdict: traffic %s -> %s left node %s when its export policy vanished.\n", src, dst, hop)
}

func countPolicies(t *topology.Topology) int {
	n := 0
	for _, tuples := range apps.PolicyTuples(t) {
		n += len(tuples)
	}
	return n
}

// fattestRIB picks the (src, dst) pair with the most permitted candidate
// routes; ties break toward the lowest (src, dst) so the pick is stable.
func fattestRIB(c *core.Cluster) (types.NodeID, types.NodeID) {
	counts := map[[2]types.NodeID]int{}
	for _, r := range c.TuplesOf("route") {
		counts[[2]types.NodeID{r.Tuple.Args[0].AsNode(), r.Tuple.Args[1].AsNode()}]++
	}
	var best [2]types.NodeID
	bestN := -1
	for pair, n := range counts {
		if n > bestN || (n == bestN && (pair[0] < best[0] || (pair[0] == best[0] && pair[1] < best[1]))) {
			best, bestN = pair, n
		}
	}
	return best[0], best[1]
}

func countRoutes(c *core.Cluster, src, dst types.NodeID) int {
	n := 0
	for _, r := range c.TuplesOf("route") {
		if r.Tuple.Args[0].AsNode() == src && r.Tuple.Args[1].AsNode() == dst {
			n++
		}
	}
	return n
}

func bestRoute(c *core.Cluster, src, dst types.NodeID) (types.Tuple, bool) {
	for _, r := range c.TuplesOf("bestRoute") {
		if r.Tuple.Args[0].AsNode() == src && r.Tuple.Args[1].AsNode() == dst {
			return r.Tuple, true
		}
	}
	return types.Tuple{}, false
}

func routeSet(c *core.Cluster, src, dst types.NodeID) string {
	for _, r := range c.TuplesOf("routeSet") {
		if r.Tuple.Args[0].AsNode() == src && r.Tuple.Args[1].AsNode() == dst {
			return r.Tuple.String()
		}
	}
	return "(no routeSet)"
}

func nextHop(c *core.Cluster, src, dst types.NodeID) types.NodeID {
	for _, r := range c.TuplesOf("nextHop") {
		if r.Tuple.Args[0].AsNode() == src && r.Tuple.Args[1].AsNode() == dst {
			return r.Tuple.Args[2].AsNode()
		}
	}
	return -1
}

// nodeSet runs the distributed NODESET provenance query for t.
func nodeSet(c *core.Cluster, t types.Tuple) []types.NodeID {
	ref, ok := c.FindTuple(t)
	if !ok {
		log.Fatalf("tuple %s not found", t)
	}
	for _, h := range c.Hosts {
		h.Query.UDF = provquery.NodeSet()
	}
	var nodes []types.NodeID
	c.Query(ref.Loc, ref.VID, ref.Loc, func(p []byte) { nodes = provquery.DecodeNodeSet(p) })
	if _, err := c.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}
	return nodes
}
