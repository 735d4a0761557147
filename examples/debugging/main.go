// Network debugging with provenance (§1, §3 use cases).
//
// A 24-node ring overlay runs PATHVECTOR. A misconfigured node then
// advertises a bogus zero-cost shortcut link, silently attracting traffic
// (a route hijack). The operator notices that a best path changed and uses
// ExSPAN's distributed provenance queries to explain the new route: the
// NODESET query names the nodes involved, and the POLYNOMIAL query exposes
// the bogus base link — without any support from the (possibly lying)
// control plane itself.
//
// Run with: go run ./examples/debugging
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
	rng := rand.New(rand.NewSource(5))
	topo := topology.Ring(24, rng)
	cluster, err := core.NewCluster(core.Config{
		Topo: topo,
		Prog: apps.PathVector(),
		Mode: engine.ProvReference,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}

	src, dst := types.NodeID(0), types.NodeID(12)
	before, _ := bestPath(cluster, src, dst)
	fmt.Printf("before hijack: best path %s -> %s is %v (cost %d)\n",
		src, dst, before.Args[3], before.Args[2].AsInt())

	// A misbehaving neighbor of the source advertises a too-good-to-be-true
	// direct link to the destination, attracting the route.
	bad := topology.Link{U: 1, V: dst, Class: topology.ClassStub, Cost: 1}
	fmt.Printf("\nnode %s injects bogus link %s-%s with cost %d...\n", bad.U, bad.U, bad.V, bad.Cost)
	cluster.AddLink(bad)
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}

	after, ok := bestPath(cluster, src, dst)
	if !ok {
		log.Fatal("route vanished")
	}
	fmt.Printf("after hijack:  best path %s -> %s is %v (cost %d)\n",
		src, dst, after.Args[3], after.Args[2].AsInt())
	if after.Equal(before) {
		fmt.Println("route unchanged; the shortcut did not attract this path")
	}

	// The operator asks: WHY does this route exist? Which nodes and which
	// base links produced it?
	ref, _ := cluster.FindTuple(after)

	for _, h := range cluster.Hosts {
		h.Query.UDF = provquery.NodeSet()
	}
	var nodesPayload []byte
	cluster.Query(src, ref.VID, ref.Loc, func(p []byte) { nodesPayload = p })
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nNODESET: nodes responsible for the route: %v\n",
		provquery.DecodeNodeSet(nodesPayload))

	for _, h := range cluster.Hosts {
		h.Query.UDF = provquery.Polynomial{}
	}
	var polyPayload []byte
	cluster.Query(src, ref.VID, ref.Loc, func(p []byte) { polyPayload = p })
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}
	expr, err := provquery.DecodePolynomial(polyPayload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPOLYNOMIAL: base links supporting the route:")
	bogus := map[string]bool{
		types.NewTuple("link", types.Node(bad.U), types.Node(bad.V), types.Int(bad.Cost)).String(): true,
		types.NewTuple("link", types.Node(bad.V), types.Node(bad.U), types.Int(bad.Cost)).String(): true,
	}
	suspicious := 0
	for _, b := range expr.BaseSet() {
		marker := ""
		if bogus[b.Label] {
			marker = "   <-- bogus advertisement"
			suspicious++
		}
		fmt.Printf("   %s%s\n", b.Label, marker)
	}
	if suspicious > 0 {
		fmt.Printf("\nverdict: the route depends on the injected link; node %s is implicated.\n", bad.U)
	} else {
		fmt.Println("\nverdict: route does not traverse the bogus link.")
	}
}

func bestPath(c *core.Cluster, src, dst types.NodeID) (types.Tuple, bool) {
	for _, ref := range c.TuplesOf("bestPath") {
		if ref.Tuple.Args[0].AsNode() == src && ref.Tuple.Args[1].AsNode() == dst {
			return ref.Tuple, true
		}
	}
	return types.Tuple{}, false
}
