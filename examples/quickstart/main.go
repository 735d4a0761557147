// Quickstart: the paper's running example end to end.
//
// Builds the four-node network of Figure 3, runs the MINCOST protocol with
// reference-based distributed provenance, prints the resulting prov and
// ruleExec partitions (Tables 1-2), and issues distributed provenance
// queries for bestPathCost(@a,c,5) in several representations (Figures 4-5,
// §5.2).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/provquery"
	"repro/internal/topology"
	"repro/internal/types"
)

func main() {
	// 1. Build the Figure 3 network and run MINCOST with reference-based
	// provenance to its distributed fixpoint.
	cluster, err := core.NewCluster(core.Config{
		Topo: topology.Figure3(),
		Prog: apps.MinCost(),
		Mode: engine.ProvReference,
	})
	if err != nil {
		log.Fatal(err)
	}
	fix, err := cluster.RunToFixpoint()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MINCOST reached fixpoint at %.3fs (virtual), %.1f KB total traffic\n\n",
		fix.Seconds(), float64(cluster.Net.TotalBytes)/1e3)

	// 2. Best path costs from node a (cf. Figure 3's topology).
	fmt.Println("Best path costs from node a:")
	for _, ref := range cluster.TuplesOf("bestPathCost") {
		if ref.Loc == 0 && ref.Tuple.Args[1].AsNode() != 0 {
			fmt.Println("  ", ref.Tuple)
		}
	}

	// 3. The distributed provenance tables (Tables 1 and 2), partitions of
	// nodes a and b.
	fmt.Println("\nprov partition rows (Loc | tuple | RID | RLoc):")
	for node := 0; node < 2; node++ {
		for _, row := range cluster.Hosts[node].Engine.Store.ProvRows() {
			fmt.Println("  ", row)
		}
	}
	fmt.Println("\nruleExec partition rows (RLoc | RID | rule | inputs):")
	for node := 0; node < 2; node++ {
		for _, row := range cluster.Hosts[node].Engine.Store.RuleExecRows() {
			fmt.Println("  ", row)
		}
	}

	// 4. Distributed provenance queries for bestPathCost(@a,c,5).
	target, ok := cluster.FindTuple(apps.BestPathCostTuple(0, 2, 5))
	if !ok {
		log.Fatal("bestPathCost(@a,c,5) not derived")
	}

	// 4a. Provenance polynomial (§5.2.1): the paper's α + β·γ.
	var poly []byte
	cluster.Query(3, target.VID, target.Loc, func(p []byte) { poly = p })
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}
	expr, err := provquery.DecodePolynomial(poly)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPOLYNOMIAL provenance of %s:\n   %s\n", target.Tuple, expr)

	// 4b. Number of alternative derivations and participating nodes.
	for _, q := range []struct {
		name string
		udf  provquery.UDF
		show func(payload []byte) string
	}{
		{"#DERIVATIONS", provquery.Derivations(), func(p []byte) string {
			return fmt.Sprint(provquery.DecodeCount(p))
		}},
		{"NODESET", provquery.NodeSet(), func(p []byte) string {
			return fmt.Sprint(provquery.DecodeNodeSet(p))
		}},
		{"DERIVABILITY", provquery.Derivability(nil), func(p []byte) string {
			return fmt.Sprint(provquery.DecodeBool(p))
		}},
	} {
		for _, h := range cluster.Hosts {
			h.Query.UDF = q.udf
		}
		var res []byte
		cluster.Query(3, target.VID, target.Loc, func(p []byte) { res = p })
		if _, err := cluster.RunToFixpoint(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-13s of %s = %s\n", q.name, target.Tuple, q.show(res))
	}

	// 5. Node-level granularity via the polynomial's base set: the paper's
	// <a, b->a>.
	bases := expr.BaseSet()
	nodes := map[types.NodeID]bool{}
	for _, b := range bases {
		nodes[b.Node] = true
	}
	fmt.Printf("\nBase tuples in the derivation (tuple-level granularity):\n")
	for _, b := range bases {
		fmt.Printf("   %s @ %s\n", b.Label, b.Node)
	}
}
