package core_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/types"
)

// TestMinCostTransitStubScale exercises a full 100-node transit-stub
// fixpoint in all three provenance configurations of Fig 6 and checks the
// headline ordering: value-based >> reference-based > none, with
// reference-based overhead small.
func TestMinCostTransitStubScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	topo := topology.TransitStub(topology.DefaultTransitStub(1), rand.New(rand.NewSource(42)))
	if topo.N != 100 {
		t.Fatalf("topology size = %d, want 100", topo.N)
	}
	cost := map[engine.ProvMode]float64{}
	for _, mode := range []engine.ProvMode{engine.ProvNone, engine.ProvReference, engine.ProvValue} {
		c, err := core.NewCluster(core.Config{Topo: topo, Prog: apps.MinCost(), Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunToFixpoint(); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		cost[mode] = c.Net.AvgSentBytes() / 1e6
		t.Logf("mode %-10s avg comm %.3f MB, total msgs %d, fixpoint %.2fs",
			mode, c.Net.AvgSentBytes()/1e6, totalMsgs(c), c.Sim.Now().Seconds())
	}
	if cost[engine.ProvReference] <= cost[engine.ProvNone] {
		t.Errorf("reference (%.3f) should exceed none (%.3f)", cost[engine.ProvReference], cost[engine.ProvNone])
	}
	if cost[engine.ProvValue] <= cost[engine.ProvReference] {
		t.Errorf("value (%.3f) should exceed reference (%.3f)", cost[engine.ProvValue], cost[engine.ProvReference])
	}
	refOverhead := cost[engine.ProvReference]/cost[engine.ProvNone] - 1
	if refOverhead > 0.5 {
		t.Errorf("reference overhead %.1f%% unexpectedly large", refOverhead*100)
	}
}

func totalMsgs(c *core.Cluster) int64 {
	var n int64
	for _, m := range c.Net.SentMsgs {
		n += m
	}
	return n
}

// TestScaleChordDeterminism10k is the 10k-node determinism smoke (ISSUE 8,
// S3): generate a seeded 10,000-node overlay, run the CHORD workload to
// fixpoint on the scheduler, and require a rerun to reproduce the exact
// delta count, wire-byte total and a sampled slice of the fixpoint — the
// parallel worker pool at four orders of magnitude above the unit topologies
// must stay bit-deterministic — and bound what a converged node retains.
// Gated behind -short; `make scale-smoke` runs it in CI.
func TestScaleChordDeterminism10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node smoke")
	}
	const (
		n          = 10000
		maxPerNode = 8000
	)
	run := func() (int64, int64, string, uint64) {
		topo := topology.Ring(n, rand.New(rand.NewSource(77)))
		prog, err := engine.Compile(apps.Chord())
		if err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		s := engine.NewScheduler(prog, engine.ProvNone, topo.N, 0, 0)
		base := apps.ChordBase(topo)
		for i := 0; i < topo.N; i++ {
			for _, tup := range base[types.NodeID(i)] {
				s.InsertBase(types.NodeID(i), tup)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for _, lk := range apps.ChordLookups(topo, 128, 9) {
			s.InsertBase(lk.Loc(), lk)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		perNode := (liveHeap() - before) / n
		var deltas int64
		for i := 0; i < s.NumNodes(); i++ {
			deltas += s.Node(i).DeltasProcessed()
		}
		// Sample a deterministic slice of the fixpoint: every 997th node's
		// succ and lookupRes tuples.
		sample := ""
		for i := 0; i < n; i += 997 {
			for _, tu := range s.Node(i).Tuples("succ") {
				sample += tu.String() + "\n"
			}
			for _, tu := range s.Node(i).Tuples("lookupRes") {
				sample += tu.String() + "\n"
			}
		}
		if sample == "" {
			t.Fatal("vacuous: sampled nodes derived nothing")
		}
		return deltas, s.TotalBytes, sample, perNode
	}
	d1, b1, s1, perNode := run()
	d2, b2, s2, _ := run()
	if d1 != d2 || b1 != b2 {
		t.Fatalf("10k reruns diverge: deltas %d/%d wire bytes %d/%d", d1, d2, b1, b2)
	}
	if s1 != s2 {
		t.Fatal("10k reruns diverge on sampled fixpoint state")
	}
	if d1 < int64(n) {
		t.Fatalf("only %d deltas at 10k nodes — workload did not run", d1)
	}
	// Footprint fence: everything the process obtained from the OS over both
	// runs, collected garbage included. Two 10k-node clusters built one after
	// the other must fit a hosted CI runner with room to spare; with chunk
	// pools sized for the largest node this read 6.8 GB.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const maxSys = 2 << 30
	t.Logf("10k chord: %d deltas, %d wire bytes, %d B retained per node, %d MB obtained from the OS",
		d1, b1, perNode, ms.Sys>>20)
	if ms.Sys > maxSys {
		t.Fatalf("two 10k-node runs took %d MB from the OS, want ≤ %d MB", ms.Sys>>20, maxSys>>20)
	}
	// Per-node fence: what a converged node retains, read as in the engine's
	// TestNodeFootprintFollowsState. With entry and row arenas per relation
	// this read 24,971 B; with one entry pool per node 15,823 B; with one
	// tuple map and one index map per node 12,260 B; with a relation's
	// counts in the pool and every rule's aggregate groups in one map
	// 11,268 B; with the round scratch borrowed from the program while a
	// node runs and the join tallies off unless asked for 9,164 B; with the
	// tuple and group maps turned into open-addressed tables 7,844 B; with
	// the index map turned into a third such table 7,754 B.
	if perNode > maxPerNode {
		t.Fatalf("a converged 10k-cluster CHORD node retains %d B, want ≤ %d B — a relation or a node opens memory its state does not need",
			perNode, maxPerNode)
	}
}

// liveHeap reads the bytes the heap retains after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestScaleMinCost400 is the largest row of the MINCOST scaling table that a
// CI runner affords: reference-mode MINCOST on the Scheduler over a seeded
// 400-node transit-stub network. The fixpoint's delta count is pinned, so
// the bound always measures the same state, and what the converged cluster
// retains per delta is bounded. State is quadratic in the network size for
// an all-pairs protocol, so bytes per derivation is what decides how far the
// paper's Fig 6 sweep reaches. This read ≈ 874 B per delta with
// string-keyed relation entries, ≈ 689 B with hash-keyed rows, ≈ 560 B
// once a stored tuple became its own provenance vertex, ≈ 514 B once
// ruleExec rows became column tables, ≈ 443 B once aggregate rows
// became handles to their input entries, ≈ 417 B once a node's
// relations shared one entry pool, ≈ 399 B after further trims, and
// ≈ 343 B once a ruleExec row named its inputs by 4-byte vertex handle and
// the store's VID and RID maps became tables of 4-byte positions, and
// ≈ 330 B once the node's tuple and group maps became open-addressed tables
// too (its index map, which followed, left it there). Gated behind -short;
// `make scale-smoke` runs it.
func TestScaleMinCost400(t *testing.T) {
	if testing.Short() {
		t.Skip("400-node MINCOST smoke")
	}
	const (
		nodes       = 400
		wantDeltas  = 719584
		maxPerDelta = 342
		maxSys      = 2 << 30
	)
	topo := topology.TransitStubN(nodes, rand.New(rand.NewSource(1)))
	prog, err := engine.Compile(apps.MinCost())
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	s := engine.NewScheduler(prog, engine.ProvReference, topo.N, 0, 0)
	apps.BootEDB(topo, false, nil, s.InsertBase)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	var deltas int64
	for _, n := range s.Engines() {
		deltas += n.DeltasProcessed()
	}
	runtime.KeepAlive(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	perDelta := (after - before) / uint64(deltas)
	t.Logf("400-node mincost: %d deltas, %.1f MB retained, %d B per delta, %d MB obtained from the OS",
		deltas, float64(after-before)/1e6, perDelta, ms.Sys>>20)
	if deltas != wantDeltas {
		t.Fatalf("%d deltas, want %d: the workload changed, so the bound means something else", deltas, wantDeltas)
	}
	if perDelta > maxPerDelta {
		t.Errorf("MINCOST at 400 nodes retains %d B per delta; want ≤ %d B", perDelta, maxPerDelta)
	}
	if ms.Sys > maxSys {
		t.Errorf("the scale smoke took %d MB from the OS, want ≤ %d MB", ms.Sys>>20, maxSys>>20)
	}
}
