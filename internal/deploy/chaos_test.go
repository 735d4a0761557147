package deploy

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/transport"
)

// fastRetransmit keeps chaos tests quick: loopback RTT is microseconds, so
// waiting the default 50 ms before the first retransmission only slows the
// test down.
var fastRetransmit = transport.Config{InitialRTO: int64(5 * time.Millisecond), MaxRTO: int64(80 * time.Millisecond)}

// TestWaitFixpointTimeoutError pins the typed loss backstop: an unretired
// work item must surface as *FixpointTimeoutError, not a silent give-up.
func TestWaitFixpointTimeoutError(t *testing.T) {
	cl, err := NewCluster(Config{
		Topo: topology.Figure3(), Prog: apps.MinCost(), Mode: engine.ProvNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.Start()
	cl.sent.Add(1) // a work item that will never retire: simulated loss
	_, err = cl.WaitFixpoint(50 * time.Millisecond)
	var te *FixpointTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("WaitFixpoint = %v, want *FixpointTimeoutError", err)
	}
	if te.Sent != te.Processed+1 {
		t.Errorf("timeout error counters = %d sent / %d processed, want one outstanding", te.Sent, te.Processed)
	}
}

// TestDeployChaosLossConvergesToSimulation injects seeded datagram loss and
// duplication under the reliable transport and checks the UDP cluster still
// reaches the exact fixpoint state of the Scheduler — the deployment half of
// the chaos equivalence fence.
func TestDeployChaosLossConvergesToSimulation(t *testing.T) {
	topo := topology.Ring(6, rand.New(rand.NewSource(11)))
	cl := bootCluster(t, Config{
		Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference,
		Reliable: true, Loss: 0.1, Dup: 0.05, FaultSeed: 7,
		Transport: fastRetransmit,
	})
	sameState(t, "scheduler vs chaos deployment", schedulerState(t, topo, apps.MinCost(), engine.ProvReference), cl.Engines())
	if cl.Dropped.Load() == 0 {
		t.Error("fault injection dropped nothing")
	}
	if st := cl.TransportStats(); st.Retransmits == 0 {
		t.Errorf("transport recovered nothing (stats %+v)", st)
	}
}

// TestDeployChaosKillRestart fail-pauses a node mid-churn: base-tuple
// retractions are injected while the node is down (all its traffic lost in
// both directions), the node restarts, retransmission timers resume every
// silenced conversation, and the cluster must reconverge to the fixpoint a
// fault-free cluster reaches from the same churn.
func TestDeployChaosKillRestart(t *testing.T) {
	topo := topology.Ring(6, rand.New(rand.NewSource(11)))
	// The churned link is incident to the killed node, so retraction deltas
	// must cross the dead window in both directions.
	var churn topology.Link
	found := false
	for _, l := range topo.Links {
		if l.U == 2 || l.V == 2 {
			churn, found = l, true
			break
		}
	}
	if !found {
		t.Fatal("no link incident to node 2")
	}

	run := func(kill bool) []*engine.Node {
		cl := bootCluster(t, Config{
			Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference,
			Reliable: true, Transport: fastRetransmit,
		})
		if kill {
			cl.Kill(2)
		}
		u, v, cost := churn.U, churn.V, churn.Cost
		cl.Nodes[u].Do(func() { cl.Nodes[u].Engine.DeleteBase(apps.LinkTuple(u, v, cost)) })
		cl.Nodes[v].Do(func() { cl.Nodes[v].Engine.DeleteBase(apps.LinkTuple(v, u, cost)) })
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
		if _, err := cl.WaitFixpoint(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := cl.Err(); err != nil {
			t.Fatal(err)
		}
		if kill {
			if st := cl.TransportStats(); st.Retransmits == 0 {
				t.Errorf("no retransmissions after restart (stats %+v)", st)
			}
		}
		return cl.Engines()
	}

	want := run(false)
	sameState(t, "fault-free churn vs crash/restart", want, run(true))
}
