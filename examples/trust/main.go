// Distributed trust management with condensed (BDD) provenance (§3, §6.3).
//
// MINCOST runs over the Figure 3 network. A policy node decides whether to
// accept routing state based on *who* it is derived from: a tuple is
// trusted only if it remains derivable using base tuples owned by trusted
// nodes. The example shows
//
//   - the BDD query (absorption provenance): a·(a+b) condenses to a,
//     so bestPathCost(@a,c,5) is accepted as long as node a is trusted,
//     regardless of node b — the paper's §3 example;
//   - the DERIVABILITY query with a trust projection (graph projection,
//     §5.2.2) that excludes an untrusted node during traversal;
//   - the trust-value semiring of §5.2.2 assigning a numeric confidence.
//
// Run with: go run ./examples/trust
package main

import (
	"fmt"
	"log"

	"repro/internal/algebra"
	"repro/internal/apps"
	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/provquery"
	"repro/internal/topology"
	"repro/internal/types"
)

func main() {
	cluster, err := core.NewCluster(core.Config{
		Topo: topology.Figure3(),
		Prog: apps.MinCost(),
		Mode: engine.ProvReference,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}
	a, b, c := types.NodeID(0), types.NodeID(1), types.NodeID(2)
	target, ok := cluster.FindTuple(apps.BestPathCostTuple(a, c, 5))
	if !ok {
		log.Fatal("bestPathCost(@a,c,5) not derived")
	}

	// --- 1. BDD (absorption) provenance --------------------------------
	for _, h := range cluster.Hosts {
		h.Query.UDF = provquery.BDD(driver.BaseVar(cluster.Engines()))
	}
	var bddPayload []byte
	cluster.Query(c, target.VID, target.Loc, func(p []byte) { bddPayload = p })
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}
	mgr := bdd.New()
	ring := algebra.BDD(mgr, driver.BaseVar(cluster.Engines()))
	root, ok := ring.Decode(bddPayload)
	if !ok {
		log.Fatal("malformed BDD answer")
	}
	fmt.Printf("condensed provenance of %s (BDD, %d nodes):\n", target.Tuple, mgr.Size(root))
	fmt.Println("  boolean form:", mgr.String(root))
	// A variable names its base tuple's owner and the owner's ordinal for
	// it; the owner's store resolves the ordinal.
	fmt.Println("  variables:")
	vars := mgr.Support(root)
	for _, v := range vars {
		store := cluster.Hosts[v.Node].Engine.Store
		vid, _ := store.BaseVID(v)
		base, _ := store.TupleOf(vid)
		fmt.Printf("    %s = %s @ %s\n", v, base, v.Node)
	}

	// Trust policies: a node is trusted iff all its base tuples are.
	restrictNode := func(root algebra.Payload, node types.NodeID, val bool) algebra.Payload {
		out := root
		for _, v := range vars {
			if v.Node == node {
				out = mgr.Restrict(out, v, val)
			}
		}
		return out
	}
	// Policy 1: trust a, distrust b. Absorption (link(@a,c,5) alone
	// suffices) keeps the tuple derivable.
	p1 := restrictNode(restrictNode(root, a, true), b, false)
	fmt.Printf("\npolicy: trust {a}, distrust {b} -> accepted: %v\n", p1 == ring.One())
	// Policy 2: distrust a. Without a's base link and a's presence on the
	// alternative derivation, the tuple loses support.
	p2 := restrictNode(root, a, false)
	fmt.Printf("policy: distrust {a}           -> accepted: %v\n", p2 == ring.One())

	// --- 2. Graph projection during traversal --------------------------
	for _, h := range cluster.Hosts {
		h.Query.UDF = provquery.Derivability(func(base algebra.Base) bool { return base.Node != b })
	}
	var der []byte
	cluster.Query(c, target.VID, target.Loc, func(p []byte) { der = p })
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDERIVABILITY excluding node b's base tuples: %v\n", provquery.DecodeBool(der))

	// --- 3. Trust values via the semiring (§5.2.2) ----------------------
	for _, h := range cluster.Hosts {
		h.Query.UDF = provquery.Polynomial{}
	}
	var poly []byte
	cluster.Query(c, target.VID, target.Loc, func(p []byte) { poly = p })
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}
	expr, err := provquery.DecodePolynomial(poly)
	if err != nil {
		log.Fatal(err)
	}
	trustOf := map[types.NodeID]int64{a: 90, b: 40, c: 95, 3: 50}
	val := algebra.Eval(expr, algebra.MinTrust(func(base algebra.Base) int64 {
		return trustOf[base.Node]
	}))
	fmt.Printf("\ntrust value of %s = %d (min over joins, max over alternatives)\n", target.Tuple, val)
}
