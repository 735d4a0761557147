// Data-plane forensics with network provenance (§1, §3, §6.2).
//
// PACKETFORWARD relays packets across a 100-node transit-stub network.
// After delivery, an operator traces a received packet: tuple-level
// provenance reconstructs the exact forwarding path (the classic "trace
// the path a message traversed" use case), and a random-moonwalk traversal
// samples derivations cheaply — the paper's tool for pinpointing dominant
// traffic sources during epidemic attacks.
//
// Run with: go run ./examples/forensics
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
	topo := topology.TransitStub(topology.DefaultTransitStub(1), rng)
	cluster, err := core.NewCluster(core.Config{
		Topo: topo,
		Prog: apps.PacketForward(),
		Mode: engine.ProvReference,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("control plane converged on %d nodes, %d links\n", topo.N, len(topo.Links))

	// A few hosts send packets to one victim node.
	victim := types.NodeID(50)
	sources := []types.NodeID{5, 17, 93}
	for _, src := range sources {
		cluster.InjectEvent(apps.PacketTuple(src, src, victim, 256))
	}
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}

	recv := cluster.TuplesOf("recvPacket")
	fmt.Printf("victim %s received %d packets\n\n", victim, len(recv))

	// Trace each received packet: the NODESET of its provenance is the
	// forwarding path plus the control-plane state used at each hop.
	for _, h := range cluster.Hosts {
		h.Query.UDF = provquery.NodeSet()
	}
	for _, r := range recv {
		src := r.Tuple.Args[1].AsNode()
		var nodes []types.NodeID
		cluster.Query(victim, r.VID, r.Loc, func(p []byte) { nodes = provquery.DecodeNodeSet(p) })
		if _, err := cluster.RunToFixpoint(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("packet from %s: %d nodes involved in derivation: %v\n", src, len(nodes), nodes)
	}

	// Moonwalk: sample derivations of a bestPathCost tuple instead of a
	// full traversal. Useful when the derivation fan-in is large.
	fmt.Println("\nrandom moonwalk over a heavily-derived tuple:")
	ref, ok := cluster.RandomTupleOf("bestPath", rng)
	if !ok {
		log.Fatal("no bestPath tuples")
	}
	for _, h := range cluster.Hosts {
		h.Query.UDF = provquery.NodeSet()
		h.Query.Strategy = provquery.Moonwalk
		h.Query.MoonwalkN = 1
	}
	bytesBefore := cluster.Net.TotalBytes
	var sampled []types.NodeID
	cluster.Query(victim, ref.VID, ref.Loc, func(p []byte) { sampled = provquery.DecodeNodeSet(p) })
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}
	moonwalkBytes := cluster.Net.TotalBytes - bytesBefore

	for _, h := range cluster.Hosts {
		h.Query.Strategy = provquery.BFS
	}
	bytesBefore = cluster.Net.TotalBytes
	var full []types.NodeID
	cluster.Query(victim, ref.VID, ref.Loc, func(p []byte) { full = provquery.DecodeNodeSet(p) })
	if _, err := cluster.RunToFixpoint(); err != nil {
		log.Fatal(err)
	}
	fullBytes := cluster.Net.TotalBytes - bytesBefore

	fmt.Printf("  target tuple: %s\n", ref.Tuple)
	fmt.Printf("  moonwalk sample: %d nodes, %d bytes of query traffic\n", len(sampled), moonwalkBytes)
	fmt.Printf("  full traversal:  %d nodes, %d bytes of query traffic\n", len(full), fullBytes)
}
