package core

import (
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
	cfg := Config{Topo: topo, Prog: w.prog(), Mode: mode, NoLinkTuples: w.noLinks}
	if w.base != nil {
		cfg.Base = w.base(topo)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunToFixpoint(); err != nil {
		t.Fatalf("boot fixpoint: %v", err)
	}
	return c
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
	if !w.noLinks {
		for _, l := range topo.Links {
			s.InsertBase(l.U, apps.LinkTuple(l.U, l.V, l.Cost))
			s.InsertBase(l.V, apps.LinkTuple(l.V, l.U, l.Cost))
		}
	}
	if w.base != nil {
		base := w.base(topo)
		for i := 0; i < topo.N; i++ {
			for _, tup := range base[types.NodeID(i)] {
				s.InsertBase(types.NodeID(i), tup)
			}
		}
	}
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
			want := chaosState(t, serial, w.preds)
			s := bootScheduled(t, w, topo, mode)
			got := engineState(s.Node, topo.N, w.preds)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s %s: node %d differs between simulator and scheduler\nsimulator:\n%.2000s\nscheduler:\n%.2000s",
						w.name, mode, i, want[i], got[i])
				}
			}
			if rerun := bootScheduled(t, w, topo, mode); rerun.TotalBytes != s.TotalBytes || rerun.Rounds != s.Rounds {
				t.Errorf("%s %s: scheduler reruns diverge: bytes %d/%d rounds %d/%d",
					w.name, mode, s.TotalBytes, rerun.TotalBytes, s.Rounds, rerun.Rounds)
			}
			if rerun := bootWorkload(t, w, topo, mode); rerun.Net.TotalBytes != serial.Net.TotalBytes {
				t.Errorf("%s %s: simulator reruns diverge on wire bytes %d/%d",
					w.name, mode, serial.Net.TotalBytes, rerun.Net.TotalBytes)
			}
			if len(serial.TuplesOf(w.preds[len(w.preds)-1])) == 0 {
				t.Fatalf("%s %s: vacuous — no %s derived", w.name, mode, w.preds[len(w.preds)-1])
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
			// Reconstruct the seeded EDB exactly as bootWorkload fed it.
			base := map[types.NodeID][]types.Tuple{}
			if !w.noLinks {
				for _, l := range topo.Links {
					base[l.U] = append(base[l.U], apps.LinkTuple(l.U, l.V, l.Cost))
					base[l.V] = append(base[l.V], apps.LinkTuple(l.V, l.U, l.Cost))
				}
			}
			if w.base != nil {
				for n, tuples := range w.base(topo) {
					base[n] = append(base[n], tuples...)
				}
			}
			for i := 0; i < topo.N; i++ {
				for _, tup := range base[types.NodeID(i)] {
					c.DeleteBase(tup)
				}
				if _, err := c.RunToFixpoint(); err != nil {
					t.Fatalf("%s %s: retraction fixpoint at node %d: %v", w.name, mode, i, err)
				}
			}
			for _, pred := range w.preds {
				if n := len(c.TuplesOf(pred)); n != 0 {
					t.Errorf("%s %s: %d %s tuples survive full retraction", w.name, mode, n, pred)
				}
			}
			for i, h := range c.Hosts {
				if g := h.Engine.AggGroupCount(); g != 0 {
					t.Errorf("%s %s node %d: %d aggregate groups leak", w.name, mode, i, g)
				}
				if n := h.Engine.Store.NumProv(); n != 0 {
					t.Errorf("%s %s node %d: %d prov rows leak", w.name, mode, i, n)
				}
				if n := h.Engine.Store.NumRuleExec(); n != 0 {
					t.Errorf("%s %s node %d: %d ruleExec rows leak", w.name, mode, i, n)
				}
			}
		}
	}
}
