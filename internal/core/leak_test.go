package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/drivertest"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/topology"
	"repro/internal/types"
)

// TestFullRetractionLeavesNoState: deleting every base link must drain all
// derived tuples, all provenance rows, all reverse edges and all aggregate
// groups — in every provenance mode. This is the strongest no-leak
// invariant of incremental maintenance with provenance (§4.2's cascaded
// deletions).
//
// Both paper workloads run it. PATHVECTOR's f_member loop check makes
// derivations loop-free, so retraction always terminated. MINCOST (pure
// distance-vector) used to exhibit the classic count-to-infinity
// divergence when links were retracted while the network stayed connected;
// the two-phase over-delete/re-derive retraction discipline (ARCHITECTURE
// "Deletion semantics") makes it terminate, so the invariant now covers it
// in all four modes too.
func TestFullRetractionLeavesNoState(t *testing.T) {
	progs := map[string]*ndlog.Program{
		"pathvector": apps.PathVector(),
		"mincost":    apps.MinCost(),
	}
	predsOf := map[string][]string{
		"pathvector": {"link", "path", "bestPath", "bestHop"},
		"mincost":    {"link", "pathCost", "bestPathCost"},
	}
	headOf := map[string]string{"pathvector": "bestPath", "mincost": "bestPathCost"}
	for name, prog := range progs {
		rng := rand.New(rand.NewSource(13))
		topo := topology.Ring(10, rng)
		for _, mode := range []engine.ProvMode{engine.ProvNone, engine.ProvReference, engine.ProvValue, engine.ProvCentralized} {
			c, err := core.NewCluster(core.Config{Topo: topo, Prog: prog, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.RunToFixpoint(); err != nil {
				t.Fatalf("%s mode %s: %v", name, mode, err)
			}
			if len(c.TuplesOf(headOf[name])) == 0 {
				t.Fatalf("%s mode %s: nothing derived", name, mode)
			}
			// Retract every link *tuple*, one at a time, with interleaved
			// fixpoints. The physical links stay installed so every
			// retraction message remains deliverable — we are testing the
			// engine's no-leak invariant, not partition loss.
			for _, l := range topo.Links {
				c.Hosts[l.U].Engine.DeleteBase(apps.LinkTuple(l.U, l.V, l.Cost))
				c.Hosts[l.V].Engine.DeleteBase(apps.LinkTuple(l.V, l.U, l.Cost))
				if _, err := c.RunToFixpoint(); err != nil {
					t.Fatalf("%s mode %s: %v", name, mode, err)
				}
			}
			for _, pred := range predsOf[name] {
				if got := len(c.TuplesOf(pred)); got != 0 {
					t.Errorf("%s mode %s: %d %s tuples survive full retraction", name, mode, got, pred)
				}
			}
			for i, h := range c.Hosts {
				if g := h.Engine.AggGroupCount(); g != 0 {
					t.Errorf("%s mode %s node %d: %d aggregate groups leak", name, mode, i, g)
				}
				if mode != engine.ProvReference {
					continue
				}
				if n := h.Engine.Store.NumProv(); n != 0 {
					t.Errorf("%s mode %s node %d: %d prov rows leak", name, mode, i, n)
				}
				if n := h.Engine.Store.NumRuleExec(); n != 0 {
					t.Errorf("%s mode %s node %d: %d ruleExec rows leak", name, mode, i, n)
				}
				if n := h.Engine.Store.NumParents(); n != 0 {
					t.Errorf("%s mode %s node %d: %d reverse edges leak", name, mode, i, n)
				}
			}
			if mode == engine.ProvCentralized {
				graph := CentralGraphOf(c)
				if graph.NumVertices() != 0 {
					t.Errorf("%s centralized: %d vertices leak at the server", name, graph.NumVertices())
				}
			}
		}
	}
}

// TestProvenanceDigestsStayOutOfInternTable is the ID half of the soak fence
// (ROADMAP item 4): provenance rows are keyed by their VIDs and RIDs
// directly, so building, converging and dropping reference-mode clusters
// must not grow the process-wide ID intern table at all — it holds only the
// digests a program carries as values, and MINCOST carries none.
func TestProvenanceDigestsStayOutOfInternTable(t *testing.T) {
	_, ids0, _, _ := types.InternStats()
	for _, topo := range []*topology.Topology{
		topology.Ring(12, rand.New(rand.NewSource(3))),
		topology.TransitStub(topology.DefaultTransitStub(1), rand.New(rand.NewSource(4))),
	} {
		c := drivertest.Simnet(t, core.Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference}).Cluster
		rows := 0
		for _, h := range c.Hosts {
			rows += h.Engine.Store.NumProv() + h.Engine.Store.NumRuleExec()
		}
		if rows == 0 {
			t.Fatal("no provenance rows were written")
		}
		if _, ids, _, _ := types.InternStats(); ids != ids0 {
			t.Fatalf("%d nodes: %d provenance rows grew the ID intern table %d -> %d", topo.N, rows, ids0, ids)
		}
	}
}
