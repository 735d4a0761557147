package deploy

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/provquery"
	"repro/internal/topology"
	"repro/internal/types"
)

// TestDeployedProvenanceQuery runs the distributed #DERIVATIONS query over
// real UDP sockets: MINCOST converges on the Fig 3 topology, then node d
// asks for the provenance of bestPathCost(@a,c,5) — expecting the paper's
// two alternative derivations.
func TestDeployedProvenanceQuery(t *testing.T) {
	cl := bootCluster(t, Config{
		Topo: topology.Figure3(),
		Prog: apps.MinCost(),
		Mode: engine.ProvReference,
	})
	// Each node's worker sets its processor's UDF before it handles any
	// query message, which arrives behind this command in its inbox.
	for _, np := range cl.Nodes {
		np.Do(func() { np.Query.UDF = provquery.Derivations() })
	}

	target := apps.BestPathCostTuple(0, 2, 5) // bestPathCost(@a,c,5)
	done := make(chan int64, 1)
	issuer := cl.Nodes[3]
	issuer.Do(func() {
		issuer.Query.Query(target.VID(), types.NodeID(0), func(payload []byte) {
			done <- provquery.DecodeCount(payload)
		})
	})
	select {
	case got := <-done:
		if got != 2 {
			t.Fatalf("deployed query returned %d derivations, want 2", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deployed query did not complete")
	}

	// A second query from another node for a deeper tuple also completes.
	target2 := apps.BestPathCostTuple(3, 0, 8) // bestPathCost(@d,a,8)
	done2 := make(chan int64, 1)
	issuer2 := cl.Nodes[1]
	issuer2.Do(func() {
		issuer2.Query.Query(target2.VID(), types.NodeID(3), func(payload []byte) {
			done2 <- provquery.DecodeCount(payload)
		})
	})
	select {
	case got := <-done2:
		if got < 1 {
			t.Fatalf("deployed query returned %d derivations, want >= 1", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second deployed query did not complete")
	}
}
