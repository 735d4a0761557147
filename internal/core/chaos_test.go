package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/drivertest"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/types"
)

// Chaos equivalence fences: a cluster run under a seeded fault schedule
// (probabilistic loss and duplication, latency jitter, healing partitions,
// fail-pause crashes) must reach the exact fixpoint of the fault-free run —
// the same canonical state (engine.WriteStates) at every node. The reliable transport (exactly-once, in-order per peer) is what
// makes this hold: a lost -1 or a duplicated +1 would permanently corrupt
// the count-based provenance state.

// chaosPlan builds one seeded schedule: moderate loss, duplication and
// reorder plus a partition across the cluster boot. Every partition heals,
// so the default retry-forever transport setting is the right one.
func chaosPlan(seed int64) *simnet.FaultPlan {
	p := &simnet.FaultPlan{Seed: seed, Drop: 0.15, Dup: 0.1, Jitter: 2 * simnet.Millisecond}
	p.AddPartition(3*simnet.Millisecond, 25*simnet.Millisecond, 0, 1)
	return p
}

// emptyState fails the test unless the cluster's state is that of the same
// cluster never booted: no tuple, prov row or ruleExec row anywhere (the
// centralized server included) — the no-leak invariant of full retraction.
func emptyState(t *testing.T, label string, c *core.Cluster) {
	t.Helper()
	cfg := c.Cfg
	cfg.Faults = nil
	fresh, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := engine.DiffStates(fresh.Engines(), c.Engines()); d != "" {
		t.Errorf("%s: state survives full retraction\n%s", label, d)
	}
}

// chaosWorkload is one protocol run through the chaos fences: its program,
// a derived predicate that must be non-empty at fixpoint (the vacuity
// witness), optional extra base-tuple seeding beyond links (nil = links
// only) and a per-step churn action.
type chaosWorkload struct {
	name    string
	prog    func() *ndlog.Program
	witness string
	noLinks bool
	base    func(*topology.Topology) map[types.NodeID][]types.Tuple
	churn   func(d driver.Driver, topo *topology.Topology, k int)
}

// config is the workload's cluster on topo in one provenance mode.
func (w chaosWorkload) config(topo *topology.Topology, mode engine.ProvMode) core.Config {
	cfg := core.Config{Topo: topo, Prog: w.prog(), Mode: mode, NoLinkTuples: w.noLinks}
	if w.base != nil {
		cfg.Base = w.base(topo)
	}
	return cfg
}

func chaosLinkChurn(d driver.Driver, topo *topology.Topology, k int) {
	l := topo.Links[(k*3)%len(topo.Links)]
	d.Delete(apps.LinkTuple(l.U, l.V, l.Cost))
	d.Delete(apps.LinkTuple(l.V, l.U, l.Cost))
}

// chaosWorkloads is the protocol matrix: the two classic routing programs
// plus the PR 8 workload suite. CHORD churns soft-state liveness tuples
// (its link predicate does not exist); POLICY churns links and the policy
// atoms riding them, so route filtering changes mid-flight.
var chaosWorkloads = []chaosWorkload{
	{name: "mincost", prog: apps.MinCost, witness: "bestPathCost", churn: chaosLinkChurn},
	{name: "pathvector", prog: apps.PathVector, witness: "bestHop", churn: chaosLinkChurn},
	{name: "chord", prog: apps.Chord, noLinks: true, witness: "lookupRes",
		base: func(topo *topology.Topology) map[types.NodeID][]types.Tuple {
			b := apps.ChordBase(topo)
			for _, lk := range apps.ChordLookups(topo, 4, 7) {
				b[lk.Loc()] = append(b[lk.Loc()], lk)
			}
			return b
		},
		churn: func(d driver.Driver, topo *topology.Topology, k int) {
			l := topo.Links[(k*3)%len(topo.Links)]
			d.Delete(apps.AliveTuple(l.U, l.V))
			d.Delete(apps.AliveTuple(l.V, l.U))
		}},
	{name: "policy", prog: apps.Policy, witness: "nextHop",
		base: func(topo *topology.Topology) map[types.NodeID][]types.Tuple {
			return apps.PolicyTuples(topo)
		},
		churn: func(d driver.Driver, topo *topology.Topology, k int) {
			l := topo.Links[(k*3)%len(topo.Links)]
			if w, ok := apps.ExportPolicy(l.U, l.V); ok {
				d.Delete(apps.PolicyTuple(l.U, l.V, w))
			}
			if w, ok := apps.ExportPolicy(l.V, l.U); ok {
				d.Delete(apps.PolicyTuple(l.V, l.U, w))
			}
			if k == 1 {
				d.Delete(apps.LinkTuple(l.U, l.V, l.Cost))
				d.Delete(apps.LinkTuple(l.V, l.U, l.Cost))
			}
		}},
}

// runChaosWorkload runs one cluster to fixpoint, applies deletion churn
// (base-tuple retractions with interleaved fixpoints; the physical links
// stay up so retransmissions remain deliverable), and returns the final
// state. Under a fault plan a second partition is injected mid-churn, so
// deletion deltas cross a lossy, partitioned wire.
func runChaosWorkload(t *testing.T, w chaosWorkload, mode engine.ProvMode, plan *simnet.FaultPlan) *driver.Sim {
	t.Helper()
	topo := topology.Ring(8, rand.New(rand.NewSource(21)))
	cfg := w.config(topo, mode)
	cfg.Faults = plan
	c := drivertest.Simnet(t, cfg)
	for k := 0; k < 3; k++ {
		if plan != nil && k == 1 {
			now := c.Sim.Now()
			plan.AddPartition(now+simnet.Millisecond, now+15*simnet.Millisecond, topo.Links[3].U)
		}
		w.churn(c, topo, k)
		if err := c.Fixpoint(); err != nil {
			t.Fatalf("churn fixpoint %d: %v", k, err)
		}
	}
	return c
}

func TestChaosEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix")
	}
	modes := []engine.ProvMode{engine.ProvNone, engine.ProvReference, engine.ProvValue, engine.ProvCentralized}
	for _, w := range chaosWorkloads {
		for _, mode := range modes {
			want := runChaosWorkload(t, w, mode, nil)
			for _, seed := range []int64{1, 42, 1234} {
				plan := chaosPlan(seed)
				c := runChaosWorkload(t, w, mode, plan)
				if plan.Dropped+plan.Duplicated+plan.Cut == 0 {
					t.Fatalf("%s %s seed %d: fault schedule injected nothing", w.name, mode, seed)
				}
				if st := c.TransportStats(); st.Retransmits == 0 || st.DupsDropped == 0 {
					t.Errorf("%s %s seed %d: transport recovered nothing (stats %+v)", w.name, mode, seed, st)
				}
				if c.Net.DroppedMsgs == 0 {
					t.Errorf("%s %s seed %d: network counted no drops", w.name, mode, seed)
				}
				drivertest.SameState(t, fmt.Sprintf("%s %s seed %d: fault-free vs chaos", w.name, mode, seed),
					want.Engines(), c.Engines())
				drivertest.CheckQuiescent(t, c)
			}
			drivertest.CheckQuiescent(t, want)
		}
	}
}

// runReleaseWaveChaos is runChaosWorkload with the fault schedule aimed at
// phase 2 of the retraction protocol: after every churn step it stripes
// short healing partitions across the whole upcoming fixpoint, so windows
// land not just on the deletion wave but on the stratified release waves
// the idle hook fires afterwards — rederive batches are dropped, queued
// behind partitions and retransmitted mid-wave.
func runReleaseWaveChaos(t *testing.T, w chaosWorkload, plan *simnet.FaultPlan) *driver.Sim {
	t.Helper()
	topo := topology.Ring(8, rand.New(rand.NewSource(21)))
	cfg := w.config(topo, engine.ProvReference)
	cfg.Faults = plan
	c := drivertest.Simnet(t, cfg)
	for k := 0; k < 3; k++ {
		w.churn(c, topo, k)
		now := c.Sim.Now()
		for i := 0; i < 24; i++ {
			start := now + simnet.Time(6*i)*simnet.Millisecond
			plan.AddPartition(start, start+4*simnet.Millisecond, topo.Links[(k+i)%len(topo.Links)].U)
		}
		if err := c.Fixpoint(); err != nil {
			t.Fatalf("churn fixpoint %d: %v", k, err)
		}
	}
	return c
}

// TestChaosReleaseWavePartition pins the batched-release path under faults:
// deletion churn stages suspects cluster-wide, and the stratified release
// waves that re-derive them must cross a wire that keeps partitioning and
// healing in stripes for the whole churn window. The fixpoint must still
// match the fault-free run, for both the MINCOST link
// churn and the POLICY link+policy churn (whose filtered-route retractions
// push the longest release waves of the suite; CHORD's alive churn is
// nearly all-local, so it never reliably crosses a partition window).
func TestChaosReleaseWavePartition(t *testing.T) {
	for _, w := range []chaosWorkload{chaosWorkloads[0], chaosWorkloads[3]} {
		want := runChaosWorkload(t, w, engine.ProvReference, nil)
		for _, seed := range []int64{7, 99} {
			plan := &simnet.FaultPlan{Seed: seed, Drop: 0.1, Jitter: simnet.Millisecond}
			c := runReleaseWaveChaos(t, w, plan)
			if plan.Cut == 0 {
				t.Fatalf("%s seed %d: no message crossed a release-wave partition", w.name, seed)
			}
			if st := c.TransportStats(); st.Retransmits == 0 {
				t.Errorf("%s seed %d: transport recovered nothing (stats %+v)", w.name, seed, st)
			}
			drivertest.SameState(t, fmt.Sprintf("%s seed %d: fault-free vs release-wave chaos", w.name, seed),
				want.Engines(), c.Engines())
			drivertest.CheckQuiescent(t, c)
		}
		drivertest.CheckQuiescent(t, want)
	}
}

// TestChaosCrashRestart crashes a node mid-churn (fail-pause: its engine
// and transport state survive, all its traffic is lost while down). After
// the window closes, retransmission timers resume the conversation in both
// directions and the cluster must reconverge to the fault-free fixpoint —
// and then drain to nothing under the full-retraction no-leak invariant,
// still with loss applied.
func TestChaosCrashRestart(t *testing.T) {
	w := chaosWorkloads[0] // mincost
	topo := topology.Ring(8, rand.New(rand.NewSource(21)))
	want := runChaosWorkload(t, w, engine.ProvReference, nil)

	plan := &simnet.FaultPlan{Seed: 9, Drop: 0.1, Jitter: simnet.Millisecond}
	plan.AddCrash(3, 2*simnet.Millisecond, 40*simnet.Millisecond)
	c := runChaosWorkload(t, w, engine.ProvReference, plan)
	if plan.Cut == 0 {
		t.Fatal("crash window silenced nothing")
	}
	drivertest.SameState(t, "fault-free vs crash/restart", want.Engines(), c.Engines())
	drivertest.CheckQuiescent(t, want)

	// Full retraction under continuing loss: the no-leak invariant must
	// survive chaos, not just clean runs.
	for _, l := range topo.Links {
		c.Delete(apps.LinkTuple(l.U, l.V, l.Cost))
		c.Delete(apps.LinkTuple(l.V, l.U, l.Cost))
		if err := c.Fixpoint(); err != nil {
			t.Fatal(err)
		}
	}
	emptyState(t, "crash/restart under loss", c.Cluster)
	for i, h := range c.Hosts {
		if g := h.Engine.AggGroupCount(); g != 0 {
			t.Errorf("node %d: %d aggregate groups leak", i, g)
		}
		if h.Ep.InFlight() != 0 {
			t.Errorf("node %d: %d payloads still in flight at fixpoint", i, h.Ep.InFlight())
		}
	}
	drivertest.CheckQuiescent(t, c)
}

// TestNewClusterRejectsFaultProbabilities: Drop and Dup are per-delivery
// probabilities in [0,1), as deploy.NewCluster's Loss and Dup are. At Dup 1
// every delivery duplicates itself again and a Figure 3 MINCOST cluster
// never reaches 20 ms of virtual time, so NewCluster refuses the plan.
func TestNewClusterRejectsFaultProbabilities(t *testing.T) {
	for _, c := range []struct{ drop, dup float64 }{
		{1, 0}, {1.5, 0}, {-0.5, 0}, {math.NaN(), 0}, {0, 1}, {0, -0.1}, {0, math.NaN()},
	} {
		plan := &simnet.FaultPlan{Seed: 1, Drop: c.drop, Dup: c.dup}
		if _, err := core.NewCluster(core.Config{Topo: topology.Figure3(), Prog: apps.MinCost(), Faults: plan}); err == nil {
			t.Errorf("Drop %v Dup %v: accepted", c.drop, c.dup)
		}
	}
}
