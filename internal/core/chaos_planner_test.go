package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Chaos × planner fence (ISSUE 7): re-planning at the simulator's idle points
// while a seeded fault schedule mangles the wire must still reach the exact
// fixpoint of the fault-free, fixed-plan run. The program is 3-atom recursive
// (planable) and derives everything from the topology's link tuples, so the
// ordinary cluster boot seeds it; on a ring, live stats genuinely flip the
// cost-chosen join order away from syntax order (reach fans out ~N per node,
// link only ~degree), so the replanning runs really do execute different
// plans.
func chaosPlannerProg(t *testing.T) *ndlog.Program {
	t.Helper()
	return ndlog.MustParse(`
c0 nbr(@X,Y) :- link(@X,Y,C).
c1 reach(@Y,X) :- link(@X,Y,C).
c2 reach(@Z,X) :- link(@Y,Z,C), reach(@Y,X), nbr(@Y,W).
`)
}

// runChaosPlanner boots a ring cluster, then runs deletion churn with a
// forced re-plan at every global quiescence point (replanning=true) or with
// plans pinned to the compile-time default (replanning=false).
func runChaosPlanner(t *testing.T, mode engine.ProvMode, plan *simnet.FaultPlan, replanning bool) (*Cluster, bool) {
	t.Helper()
	topo := topology.Ring(8, rand.New(rand.NewSource(21)))
	c, err := NewCluster(Config{Topo: topo, Prog: chaosPlannerProg(t), Mode: mode, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !replanning {
		for _, h := range c.Hosts {
			h.Engine.NoReplan = true
		}
	}
	changed := false
	replanAll := func() {
		if !replanning {
			return
		}
		for _, h := range c.Hosts {
			if h.Engine.ForceReplan() {
				changed = true
			}
		}
	}
	if _, err := c.RunToFixpoint(); err != nil {
		t.Fatalf("boot fixpoint: %v", err)
	}
	replanAll()
	for k := 0; k < 3; k++ {
		l := topo.Links[(k*3)%len(topo.Links)]
		if plan != nil && k == 1 {
			now := c.Sim.Now()
			plan.AddPartition(now+simnet.Millisecond, now+15*simnet.Millisecond, l.U)
		}
		c.Hosts[l.U].Engine.DeleteBase(apps.LinkTuple(l.U, l.V, l.Cost))
		c.Hosts[l.V].Engine.DeleteBase(apps.LinkTuple(l.V, l.U, l.Cost))
		if _, err := c.RunToFixpoint(); err != nil {
			t.Fatalf("churn fixpoint %d: %v", k, err)
		}
		replanAll()
	}
	return c, changed
}

func TestChaosPlannerEquivalence(t *testing.T) {
	for _, mode := range []engine.ProvMode{engine.ProvReference, engine.ProvNone} {
		want, _ := runChaosPlanner(t, mode, nil, false)
		// Fault-free replanning run: pins plan swaps alone as state-neutral
		// and asserts the stats actually flipped a plan.
		got, changed := runChaosPlanner(t, mode, nil, true)
		if !changed {
			t.Fatalf("%s: no re-plan changed a plan; chaos fence is vacuous", mode)
		}
		sameState(t, fmt.Sprintf("%s: fixed vs fault-free replanning", mode), want.Engines(), got.Engines())
		for _, seed := range []int64{1, 42} {
			plan := chaosPlan(seed)
			c, _ := runChaosPlanner(t, mode, plan, true)
			if plan.Dropped+plan.Duplicated+plan.Cut == 0 {
				t.Fatalf("%s seed %d: fault schedule injected nothing", mode, seed)
			}
			if c.Net.DroppedMsgs == 0 {
				t.Errorf("%s seed %d: network counted no drops", mode, seed)
			}
			sameState(t, fmt.Sprintf("%s seed %d: fixed fault-free vs chaos+replanning", mode, seed),
				want.Engines(), c.Engines())
		}
	}
}
