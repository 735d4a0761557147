package core_test

import (
	"fmt"
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
)

// Chaos fence on a planned rule: a 3-atom recursive program, whose join
// order Compile chooses (c2), runs deletion churn while a seeded fault
// schedule mangles the wire and partitions a node, and must still reach the
// exact fixpoint of the fault-free run. It derives everything from the
// topology's link tuples, so the ordinary cluster boot seeds it. That every
// legal join order of c2 reaches the same state is the engine package's
// join-order fence (engine/joinorder_test.go).
func chaosPlannerProg() *ndlog.Program {
	return ndlog.MustParse(`
c0 nbr(@X,Y) :- link(@X,Y,C).
c1 reach(@Y,X) :- link(@X,Y,C).
c2 reach(@Z,X) :- link(@Y,Z,C), reach(@Y,X), nbr(@Y,W).
`)
}

// runChaosPlanner boots a ring cluster, then deletes three links one
// quiescence point at a time, partitioning one endpoint during the second
// deletion when a fault plan is set.
func runChaosPlanner(t *testing.T, mode engine.ProvMode, plan *simnet.FaultPlan) *driver.Sim {
	t.Helper()
	topo := topology.Ring(8, rand.New(rand.NewSource(21)))
	c := drivertest.Simnet(t, core.Config{Topo: topo, Prog: chaosPlannerProg(), Mode: mode, Faults: plan})
	for k := 0; k < 3; k++ {
		l := topo.Links[(k*3)%len(topo.Links)]
		if plan != nil && k == 1 {
			now := c.Sim.Now()
			plan.AddPartition(now+simnet.Millisecond, now+15*simnet.Millisecond, l.U)
		}
		c.Delete(apps.LinkTuple(l.U, l.V, l.Cost))
		c.Delete(apps.LinkTuple(l.V, l.U, l.Cost))
		if err := c.Fixpoint(); err != nil {
			t.Fatalf("churn fixpoint %d: %v", k, err)
		}
	}
	return c
}

func TestChaosPlannerEquivalence(t *testing.T) {
	for _, mode := range []engine.ProvMode{engine.ProvReference, engine.ProvNone} {
		want := runChaosPlanner(t, mode, nil)
		for _, seed := range []int64{1, 42} {
			plan := chaosPlan(seed)
			c := runChaosPlanner(t, mode, plan)
			if plan.Dropped+plan.Duplicated+plan.Cut == 0 {
				t.Fatalf("%s seed %d: fault schedule injected nothing", mode, seed)
			}
			if c.Net.DroppedMsgs == 0 {
				t.Errorf("%s seed %d: network counted no drops", mode, seed)
			}
			drivertest.SameState(t, fmt.Sprintf("%s seed %d: fault-free vs chaos", mode, seed),
				want.Engines(), c.Engines())
			drivertest.CheckQuiescent(t, c)
		}
		drivertest.CheckQuiescent(t, want)
	}
}
