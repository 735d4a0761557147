package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/drivertest"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/types"
)

// Workload-suite fences for the PR 8 protocols (CHORD routing and the
// policy-constrained path-vector program): simulator-vs-Scheduler (one
// message vs a round of messages per ingest) bit-identical equivalence and
// full-retraction no-leak, each across all four provenance modes. The classic
// routing programs have these fences in scheduler_test.go and chaos_test.go;
// the new protocols exercise multi-rule recursion (lookup forwarding), double
// aggregation (MIN + AGGLIST) and soft-state liveness predicates through the
// same invariants.

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

// TestWorkloadDrainBatchedEquivalence pins the simulator's cluster fixpoint
// (nodes ingest one message at a time) against the Scheduler's (nodes ingest
// a round of messages) for both protocols in every provenance mode: the same
// tuples, provenance rows and ruleExec rows at every node. Wire-byte totals
// legitimately differ between the drivers (batching nets transient deltas
// out before they ship); reruns of one driver must reproduce them
// bit-for-bit.
func TestWorkloadDrainBatchedEquivalence(t *testing.T) {
	topo := topology.Ring(8, rand.New(rand.NewSource(21)))
	for _, w := range suiteWorkloads(t) {
		for _, mode := range provModes {
			cfg := w.config(topo, mode)
			serial := drivertest.Simnet(t, cfg)
			s := drivertest.Scheduler(t, cfg, 0)
			drivertest.SameState(t, fmt.Sprintf("%s %s: simulator vs scheduler", w.name, mode), serial.Engines(), s.Engines())
			if rerun := drivertest.Scheduler(t, cfg, 0); rerun.TotalBytes != s.TotalBytes || rerun.Rounds != s.Rounds {
				t.Errorf("%s %s: scheduler reruns diverge: bytes %d/%d rounds %d/%d",
					w.name, mode, s.TotalBytes, rerun.TotalBytes, s.Rounds, rerun.Rounds)
			}
			if rerun := drivertest.Simnet(t, cfg); rerun.Net.TotalBytes != serial.Net.TotalBytes {
				t.Errorf("%s %s: simulator reruns diverge on wire bytes %d/%d",
					w.name, mode, serial.Net.TotalBytes, rerun.Net.TotalBytes)
			}
			if len(serial.TuplesOf(w.witness)) == 0 {
				t.Fatalf("%s %s: vacuous — no %s derived", w.name, mode, w.witness)
			}
			drivertest.CheckQuiescent(t, serial)
			drivertest.CheckQuiescent(t, s)
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
			cfg := w.config(topo, mode)
			c := drivertest.Simnet(t, cfg)
			// Retract the seeded EDB exactly as the boot fed it, node by node.
			base := map[types.NodeID][]types.Tuple{}
			apps.BootEDB(topo, cfg.NoLinkTuples, cfg.Base, func(at types.NodeID, tup types.Tuple) {
				base[at] = append(base[at], tup)
			})
			for i := 0; i < topo.N; i++ {
				for _, tup := range base[types.NodeID(i)] {
					c.Delete(tup)
				}
				if err := c.Fixpoint(); err != nil {
					t.Fatalf("%s %s: retraction fixpoint at node %d: %v", w.name, mode, i, err)
				}
			}
			emptyState(t, fmt.Sprintf("%s %s", w.name, mode), c.Cluster)
			for i, h := range c.Hosts {
				if g := h.Engine.AggGroupCount(); g != 0 {
					t.Errorf("%s %s node %d: %d aggregate groups leak", w.name, mode, i, g)
				}
			}
			drivertest.CheckQuiescent(t, c)
		}
	}
}
