package deploy_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/driver"
	"repro/internal/drivertest"
	"repro/internal/engine"
	"repro/internal/topology"
)

// The deployment's cross-driver fences: a UDP cluster reaches the fixpoint
// the Scheduler reaches from the same topology, with and without faults —
// the paper's "identical codebase" property.

// TestDeployRingPathVector runs PATHVECTOR on the §7.4 ring overlay with 8
// UDP nodes, in reference and value modes, and checks the reference mode is
// cheaper — the testbed headline of Fig 16.
func TestDeployRingPathVector(t *testing.T) {
	topo := topology.Ring(8, rand.New(rand.NewSource(3)))
	costs := map[engine.ProvMode]float64{}
	for _, mode := range []engine.ProvMode{engine.ProvNone, engine.ProvReference, engine.ProvValue} {
		cl := drivertest.Deploy(t, deploy.Config{Topo: topo, Prog: apps.PathVector(), Mode: mode})
		// All-pairs best paths must exist.
		if n := len(cl.Snapshot("bestPath")); n < topo.N*(topo.N-1) {
			t.Errorf("mode %s: %d bestPath tuples, want >= %d", mode, n, topo.N*(topo.N-1))
		}
		costs[mode] = cl.AvgSentKB()
		drivertest.CheckQuiescent(t, cl)
		cl.Stop()
	}
	t.Logf("avg per-node KB: none=%.2f ref=%.2f value=%.2f",
		costs[engine.ProvNone], costs[engine.ProvReference], costs[engine.ProvValue])
	if !(costs[engine.ProvNone] < costs[engine.ProvReference] &&
		costs[engine.ProvReference] < costs[engine.ProvValue]) {
		t.Errorf("expected none < reference < value, got %v", costs)
	}
}

// mincostRing is the 6-node MINCOST ring the deployment is compared on.
func mincostRing() core.Config {
	return core.Config{Topo: topology.Ring(6, rand.New(rand.NewSource(11))), Prog: apps.MinCost(),
		Mode: engine.ProvReference}
}

// TestDeployMatchesSimulation checks that deployment and the Scheduler reach
// the same canonical fixpoint state from the same topology.
func TestDeployMatchesSimulation(t *testing.T) {
	ring := mincostRing()
	cl := drivertest.Deploy(t, deploy.Config{Topo: ring.Topo, Prog: ring.Prog, Mode: ring.Mode})
	s := drivertest.Scheduler(t, ring, 0)
	drivertest.SameState(t, "scheduler vs deployment", s.Engines(), cl.Engines())
	drivertest.CheckQuiescent(t, cl)
	drivertest.CheckQuiescent(t, s)
}

// TestDeployChaosLossConvergesToSimulation injects seeded datagram loss and
// duplication under the reliable transport and checks the UDP cluster still
// reaches the exact fixpoint state of the Scheduler — the deployment half of
// the chaos equivalence fence.
func TestDeployChaosLossConvergesToSimulation(t *testing.T) {
	ring := mincostRing()
	cl := drivertest.Deploy(t, deploy.Config{
		Topo: ring.Topo, Prog: ring.Prog, Mode: ring.Mode,
		Reliable: true, Loss: 0.1, Dup: 0.05, FaultSeed: 7,
		Transport: deploy.FastRetransmit,
	})
	drivertest.SameState(t, "scheduler vs chaos deployment", drivertest.Scheduler(t, ring, 0).Engines(), cl.Engines())
	if cl.Dropped.Load() == 0 {
		t.Error("fault injection dropped nothing")
	}
	if st := cl.TransportStats(); st.Retransmits == 0 {
		t.Errorf("transport recovered nothing (stats %+v)", st)
	}
	drivertest.CheckQuiescent(t, cl)
}

// TestDeployChaosKillRestart fail-pauses a node mid-churn: base-tuple
// retractions are injected while the node is down (all its traffic lost in
// both directions), the node restarts, retransmission timers resume every
// silenced conversation, and the cluster must reconverge to the fixpoint a
// fault-free cluster reaches from the same churn.
func TestDeployChaosKillRestart(t *testing.T) {
	ring := mincostRing()
	// The churned link is incident to the killed node, so retraction deltas
	// must cross the dead window in both directions.
	var churn topology.Link
	found := false
	for _, l := range ring.Topo.Links {
		if l.U == 2 || l.V == 2 {
			churn, found = l, true
			break
		}
	}
	if !found {
		t.Fatal("no link incident to node 2")
	}

	run := func(kill bool) *driver.UDP {
		cl := drivertest.Deploy(t, deploy.Config{
			Topo: ring.Topo, Prog: ring.Prog, Mode: ring.Mode,
			Reliable: true, Transport: deploy.FastRetransmit,
		})
		if kill {
			cl.Kill(2)
		}
		cl.Delete(apps.LinkTuple(churn.U, churn.V, churn.Cost))
		cl.Delete(apps.LinkTuple(churn.V, churn.U, churn.Cost))
		if kill {
			// Wait until the dead window has actually eaten traffic before
			// healing, so the retransmit path is exercised for real.
			deadline := time.Now().Add(10 * time.Second)
			for cl.Dropped.Load() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if cl.Dropped.Load() == 0 {
				t.Fatal("kill window silenced no datagrams")
			}
			cl.Restart(2)
		}
		if err := cl.Fixpoint(); err != nil {
			t.Fatal(err)
		}
		if kill {
			if st := cl.TransportStats(); st.Retransmits == 0 {
				t.Errorf("no retransmissions after restart (stats %+v)", st)
			}
		}
		return cl
	}

	want, got := run(false), run(true)
	drivertest.SameState(t, "fault-free churn vs crash/restart", want.Engines(), got.Engines())
	drivertest.CheckQuiescent(t, want)
	drivertest.CheckQuiescent(t, got)
}
