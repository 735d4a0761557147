package core_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/drivertest"
	"repro/internal/engine"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/types"
)

const ms = simnet.Millisecond

// cycleTopo builds a plain n-node cycle so path assertions are hand
// computable (no random chords).
func cycleTopo(n int) *topology.Topology {
	t := &topology.Topology{N: n}
	for i := 0; i < n; i++ {
		t.Links = append(t.Links, topology.Link{
			U: types.NodeID(i), V: types.NodeID((i + 1) % n),
			Class: topology.ClassStub, Cost: 1,
		})
	}
	return t
}

// softCluster boots a mincost cluster whose links are announced through a
// SoftState manager instead of the config EDB, all at t=0.
func softCluster(t *testing.T, topo *topology.Topology, ttl simnet.Time, plan *simnet.FaultPlan) (*core.Cluster, *core.SoftState) {
	t.Helper()
	c, err := core.NewCluster(core.Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference, NoLinkTuples: true, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	ss := core.NewSoftState(c, ttl)
	c.Sim.At(0, func() {
		for _, l := range topo.Links {
			ss.Announce(l.U, apps.LinkTuple(l.U, l.V, l.Cost))
			ss.Announce(l.V, apps.LinkTuple(l.V, l.U, l.Cost))
		}
	})
	return c, ss
}

// TestSoftStateLifecycle covers the timer discipline in isolation:
// announce → visible; refresh moves the deadline; silence lets it pass;
// expiry retracts exactly once; withdraw retracts immediately; refreshing
// an expired entry does not resurrect it.
func TestSoftStateLifecycle(t *testing.T) {
	topo := cycleTopo(4)
	c, ss := softCluster(t, topo, 10*ms, nil)
	l0 := apps.LinkTuple(0, 1, 1)

	if err := c.RunUntil(5 * ms); err != nil {
		t.Fatal(err)
	}
	if !ss.Live(0, l0) {
		t.Fatal("announced entry not live")
	}
	if len(c.Hosts[0].Engine.Tuples("link")) == 0 {
		t.Fatal("announce did not insert")
	}

	// Keep l0 alive past its original deadline with one refresh.
	c.Sim.At(8*ms, func() { ss.Refresh(0, l0) })
	// Re-announcing a live entry must behave as a refresh, not a second
	// insert (a double insert would leak a derivation count).
	c.Sim.At(9*ms, func() { ss.Announce(0, l0) })
	if err := c.RunUntil(12 * ms); err != nil {
		t.Fatal(err)
	}
	if !ss.Live(0, l0) {
		t.Fatal("refreshed entry expired at original deadline")
	}
	// All unrefreshed entries expired at 10ms; l0 is the only survivor.
	if ss.Expirations != 2*len(topo.Links)-1 {
		t.Fatalf("expirations = %d, want %d", ss.Expirations, 2*len(topo.Links)-1)
	}

	// The single expiry retraction must fully retract despite the two
	// extra announce/refresh calls — the no-double-insert discipline.
	if err := c.RunUntil(30 * ms); err != nil {
		t.Fatal(err)
	}
	if ss.Live(0, l0) {
		t.Fatal("entry still live after refreshes stopped")
	}
	if n := len(c.TuplesOf("link")); n != 0 {
		t.Fatalf("%d link tuples survive expiry", n)
	}
	if n := len(c.TuplesOf("bestPathCost")); n != 0 {
		t.Fatalf("%d bestPathCost tuples survive expiry", n)
	}
	if ss.Refresh(0, l0); ss.Live(0, l0) {
		t.Fatal("refresh resurrected an expired entry")
	}
}

func TestSoftStateAutoRefreshAndWithdraw(t *testing.T) {
	topo := cycleTopo(4)
	c, ss := softCluster(t, topo, 10*ms, nil)
	c.Sim.At(0, func() {
		for _, l := range topo.Links {
			// 4ms period < 10ms TTL: entries stay alive while the chain runs.
			ss.AutoRefresh(l.U, apps.LinkTuple(l.U, l.V, l.Cost), 4*ms, 5)
			ss.AutoRefresh(l.V, apps.LinkTuple(l.V, l.U, l.Cost), 4*ms, 5)
		}
	})
	if err := c.RunUntil(18 * ms); err != nil {
		t.Fatal(err)
	}
	if ss.Expirations != 0 {
		t.Fatalf("%d expirations while auto-refresh chains run", ss.Expirations)
	}
	if len(c.TuplesOf("bestPathCost")) == 0 {
		t.Fatal("no routes while refreshed")
	}
	// Withdraw half the entries immediately; silence the rest and let the
	// bounded chains run out.
	c.Sim.At(18*ms, func() {
		for i, l := range topo.Links {
			u, v := apps.LinkTuple(l.U, l.V, l.Cost), apps.LinkTuple(l.V, l.U, l.Cost)
			if i%2 == 0 {
				ss.Withdraw(l.U, u)
				ss.Withdraw(l.V, v)
			} else {
				ss.Silence(l.U, u)
				ss.Silence(l.V, v)
			}
		}
	})
	if _, err := c.RunToFixpoint(); err != nil {
		t.Fatal(err)
	}
	if n := len(c.TuplesOf("link")); n != 0 {
		t.Fatalf("%d link tuples survive withdraw+silence", n)
	}
	for i, h := range c.Hosts {
		if g := h.Engine.AggGroupCount(); g != 0 {
			t.Errorf("node %d: %d aggregate groups leak", i, g)
		}
		if n := h.Engine.Store.NumProv(); n != 0 {
			t.Errorf("node %d: %d prov rows leak", i, n)
		}
	}
}

// TestSoftStateExpiryDuringSuspectWave is the soft-state × DRed
// interleaving fence: a TTL expiry starts a staged-suspect deletion wave,
// and a refresh timer firing mid-wave (while deletion deltas are still on
// the 2ms stub links) must not re-show a hidden suspect or perturb the
// final fixpoint. The end state must be bit-identical to a cluster that
// performed a plain DeleteBase of the same link, and a final withdraw of
// everything must drain to zero.
func TestSoftStateExpiryDuringSuspectWave(t *testing.T) {
	topo := cycleTopo(8)
	victimU, victimV := apps.LinkTuple(0, 1, 1), apps.LinkTuple(1, 0, 1)

	// Soft-state cluster: every link on a 100ms TTL, except the victim
	// pair which lives on a 10ms clock and is never refreshed.
	c, err := core.NewCluster(core.Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference, NoLinkTuples: true})
	if err != nil {
		t.Fatal(err)
	}
	ss := core.NewSoftState(c, 100*ms)
	short := core.NewSoftState(c, 10*ms)
	c.Sim.At(0, func() {
		for _, l := range topo.Links {
			mgr := ss
			if l.U == 0 && l.V == 1 {
				mgr = short
			}
			mgr.Announce(l.U, apps.LinkTuple(l.U, l.V, l.Cost))
			mgr.Announce(l.V, apps.LinkTuple(l.V, l.U, l.Cost))
		}
	})

	probe := func(when simnet.Time, fn func()) { c.Sim.At(when, fn) }
	bpc01 := func() bool {
		for _, tu := range c.Hosts[0].Engine.Tuples("bestPathCost") {
			if tu.Args[1].AsNode() == 1 {
				return true
			}
		}
		return false
	}
	var bootHad, midWaveHidden, refreshFired bool
	probe(5*ms, func() { bootHad = bpc01() })
	// A refresh timer fires while the expiry's deletion wave is mid-flight
	// (expiry at 10ms; neighbor deltas land at 12ms).
	probe(11*ms, func() { ss.Refresh(2, apps.LinkTuple(2, 3, 1)); refreshFired = true })
	probe(11*ms+ms/2, func() { midWaveHidden = !bpc01() })

	if err := c.RunUntil(40 * ms); err != nil {
		t.Fatal(err)
	}
	if !bootHad {
		t.Fatal("vacuous: no bestPathCost(@0,1) at boot")
	}
	if !refreshFired {
		t.Fatal("refresh timer did not fire")
	}
	if !midWaveHidden {
		t.Fatal("suspect bestPathCost(@0,1) visible mid-deletion-wave")
	}
	if short.Expirations != 2 {
		t.Fatalf("victim expirations = %d, want 2", short.Expirations)
	}
	// The long-TTL entries must have survived to 40ms: the 11ms refresh
	// extended one, the rest hold their original 100ms deadline.
	if ss.Expirations != 0 {
		t.Fatalf("%d long-TTL entries expired early", ss.Expirations)
	}

	// Baseline: same topology via config EDB, plain DeleteBase of the
	// victim pair at the same virtual time.
	b, err := core.NewCluster(core.Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference})
	if err != nil {
		t.Fatal(err)
	}
	b.Sim.At(10*ms, func() {
		b.Hosts[0].Engine.DeleteBase(victimU)
		b.Hosts[1].Engine.DeleteBase(victimV)
	})
	if err := b.RunUntil(40 * ms); err != nil {
		t.Fatal(err)
	}
	drivertest.SameState(t, "plain deletion vs soft-state expiry", b.Engines(), c.Engines())

	// Withdraw everything still live; the cluster must drain to zero —
	// this is where a refresh that double-inserted would leak a count.
	c.Sim.At(41*ms, func() {
		for _, l := range topo.Links {
			ss.Withdraw(l.U, apps.LinkTuple(l.U, l.V, l.Cost))
			ss.Withdraw(l.V, apps.LinkTuple(l.V, l.U, l.Cost))
		}
	})
	if _, err := c.RunToFixpoint(); err != nil {
		t.Fatal(err)
	}
	emptyState(t, "full withdraw", c)
	for i, h := range c.Hosts {
		if g := h.Engine.AggGroupCount(); g != 0 {
			t.Errorf("node %d: %d aggregate groups leak", i, g)
		}
	}
}

// TestChaosSoftState runs the soft-state lifecycle under a seeded fault
// plan (loss, duplication, jitter, a healing partition): TTL expiries and
// refresh timers interleave with retransmission timers, and the fixpoint
// after every entry expires or is withdrawn must still drain to zero.
func TestChaosSoftState(t *testing.T) {
	topo := cycleTopo(8)
	for _, seed := range []int64{1, 42} {
		plan := chaosPlan(seed)
		c, ss := softCluster(t, topo, 15*ms, plan)
		c.Sim.At(0, func() {
			for i, l := range topo.Links {
				if i%2 == 0 { // half the entries get a refresh chain
					ss.AutoRefresh(l.U, apps.LinkTuple(l.U, l.V, l.Cost), 6*ms, 3)
					ss.AutoRefresh(l.V, apps.LinkTuple(l.V, l.U, l.Cost), 6*ms, 3)
				}
			}
		})
		if _, err := c.RunToFixpoint(); err != nil {
			t.Fatal(err)
		}
		if plan.Dropped+plan.Duplicated+plan.Cut == 0 {
			t.Fatalf("seed %d: fault schedule injected nothing", seed)
		}
		if ss.Expirations != 2*len(topo.Links) {
			t.Fatalf("seed %d: expirations = %d, want %d", seed, ss.Expirations, 2*len(topo.Links))
		}
		for _, pred := range []string{"link", "pathCost", "bestPathCost"} {
			if n := len(c.TuplesOf(pred)); n != 0 {
				t.Fatalf("seed %d: %d %s tuples survive expiry under chaos", seed, n, pred)
			}
		}
		for i, h := range c.Hosts {
			if n := h.Engine.Store.NumProv(); n != 0 {
				t.Errorf("seed %d node %d: %d prov rows leak", seed, i, n)
			}
			if h.Ep.InFlight() != 0 {
				t.Errorf("seed %d node %d: %d payloads in flight at fixpoint", seed, i, h.Ep.InFlight())
			}
		}
	}
}
