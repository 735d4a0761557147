package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/types"
)

// Workload-suite fences for the PR 8 protocols (CHORD routing and the
// policy-constrained path-vector program): simulator-vs-Scheduler (drain vs
// batched rounds) bit-identical equivalence and full-retraction no-leak, each
// across all four provenance modes. The classic routing programs have these
// fences in scheduler_test.go and chaos_test.go; the new protocols exercise
// multi-rule recursion (lookup forwarding), double aggregation (MIN +
// AGGLIST) and soft-state liveness predicates through the same invariants.

var provModes = []engine.ProvMode{
	engine.ProvNone, engine.ProvReference, engine.ProvValue, engine.ProvCentralized,
}

// suiteWorkloads are the chaosWorkloads rows for the new protocols.
func suiteWorkloads(t *testing.T) []chaosWorkload {
	t.Helper()
	var out []chaosWorkload
	for _, w := range chaosWorkloads {
		if w.name == "chord" || w.name == "policy" {
			out = append(out, w)
		}
	}
	if len(out) != 2 {
		t.Fatal("workload table lost the PR 8 protocols")
	}
	return out
}

// bootWorkload builds and boots a cluster for one workload row.
func bootWorkload(t *testing.T, w chaosWorkload, topo *topology.Topology, mode engine.ProvMode) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{Topo: topo, Prog: w.prog(), Mode: mode, NoLinkTuples: w.noLinks,
		Base: workloadBase(w, topo)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunToFixpoint(); err != nil {
		t.Fatalf("boot fixpoint: %v", err)
	}
	return c
}

// workloadBase is the workload's EDB beyond links (nil when it has none).
func workloadBase(w chaosWorkload, topo *topology.Topology) map[types.NodeID][]types.Tuple {
	if w.base == nil {
		return nil
	}
	return w.base(topo)
}

// bootScheduled seeds the same EDB bootWorkload does into an engine.Scheduler
// and runs it to fixpoint.
func bootScheduled(t *testing.T, w chaosWorkload, topo *topology.Topology, mode engine.ProvMode) *engine.Scheduler {
	t.Helper()
	prog, err := engine.Compile(w.prog())
	if err != nil {
		t.Fatal(err)
	}
	s := engine.NewScheduler(prog, mode, topo.N, 0, 0)
	apps.BootEDB(topo, w.noLinks, workloadBase(w, topo), s.InsertBase)
	if err := s.Run(); err != nil {
		t.Fatalf("scheduled fixpoint: %v", err)
	}
	return s
}

// TestWorkloadDrainBatchedEquivalence pins the simulator's cluster fixpoint
// (nodes drain one message at a time) against the Scheduler's (nodes batch a
// round of messages) for both protocols in every provenance mode: the same
// tuples, provenance rows and ruleExec rows at every node. Wire-byte totals
// legitimately differ between the drivers (batching nets transient deltas
// out before they ship); reruns of one driver must reproduce them
// bit-for-bit.
func TestWorkloadDrainBatchedEquivalence(t *testing.T) {
	topo := topology.Ring(8, rand.New(rand.NewSource(21)))
	for _, w := range suiteWorkloads(t) {
		for _, mode := range provModes {
			serial := bootWorkload(t, w, topo, mode)
			s := bootScheduled(t, w, topo, mode)
			sameState(t, fmt.Sprintf("%s %s: simulator vs scheduler", w.name, mode), serial.Engines(), s.Engines())
			if rerun := bootScheduled(t, w, topo, mode); rerun.TotalBytes != s.TotalBytes || rerun.Rounds != s.Rounds {
				t.Errorf("%s %s: scheduler reruns diverge: bytes %d/%d rounds %d/%d",
					w.name, mode, s.TotalBytes, rerun.TotalBytes, s.Rounds, rerun.Rounds)
			}
			if rerun := bootWorkload(t, w, topo, mode); rerun.Net.TotalBytes != serial.Net.TotalBytes {
				t.Errorf("%s %s: simulator reruns diverge on wire bytes %d/%d",
					w.name, mode, serial.Net.TotalBytes, rerun.Net.TotalBytes)
			}
			if len(serial.TuplesOf(w.witness)) == 0 {
				t.Fatalf("%s %s: vacuous — no %s derived", w.name, mode, w.witness)
			}
		}
	}
}

// TestWorkloadFullRetraction deletes every base tuple of each protocol —
// node by node, with interleaved fixpoints so DRed waves overlap — and
// requires the cluster to drain to nothing: no visible tuples, no
// aggregate groups, no provenance or ruleExec rows anywhere (including
// the central server in ProvCentralized mode).
func TestWorkloadFullRetraction(t *testing.T) {
	topo := topology.Ring(8, rand.New(rand.NewSource(21)))
	for _, w := range suiteWorkloads(t) {
		for _, mode := range provModes {
			c := bootWorkload(t, w, topo, mode)
			// Retract the seeded EDB exactly as bootWorkload fed it, node by node.
			base := map[types.NodeID][]types.Tuple{}
			apps.BootEDB(topo, w.noLinks, workloadBase(w, topo), func(at types.NodeID, tup types.Tuple) {
				base[at] = append(base[at], tup)
			})
			for i := 0; i < topo.N; i++ {
				for _, tup := range base[types.NodeID(i)] {
					c.DeleteBase(tup)
				}
				if _, err := c.RunToFixpoint(); err != nil {
					t.Fatalf("%s %s: retraction fixpoint at node %d: %v", w.name, mode, i, err)
				}
			}
			emptyState(t, fmt.Sprintf("%s %s", w.name, mode), c)
			for i, h := range c.Hosts {
				if g := h.Engine.AggGroupCount(); g != 0 {
					t.Errorf("%s %s node %d: %d aggregate groups leak", w.name, mode, i, g)
				}
			}
		}
	}
}
