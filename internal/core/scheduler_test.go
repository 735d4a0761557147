package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/topology"
)

// This test pins the cross-driver, cross-executor contract on the benchmark
// workload (MINCOST over the §7 transit-stub topology): the Scheduler, whose
// nodes evaluate in batched rounds, must reach exactly the fixpoint the
// simulation, whose nodes drain, reaches — the same canonical state at every
// node — and must reproduce its byte accounting
// bit-for-bit whatever the size of its worker pool.

func TestSchedulerMatchesSimnet(t *testing.T) {
	if testing.Short() {
		t.Skip("full transit-stub fixpoint")
	}
	topo := topology.TransitStub(topology.DefaultTransitStub(1), rand.New(rand.NewSource(1)))

	// Reference: the simulation (one message per ingest, inline drain).
	c, err := NewCluster(Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunToFixpoint(); err != nil {
		t.Fatal(err)
	}
	prog, err := engine.Compile(apps.MinCost())
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *engine.Scheduler {
		s := engine.NewScheduler(prog, engine.ProvReference, topo.N, 0, workers)
		apps.BootEDB(topo, false, nil, s.InsertBase)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s
	}

	var prev *engine.Scheduler
	for _, workers := range []int{1, 0, 4} {
		s := run(workers)
		sameState(t, fmt.Sprintf("workers=%d: simnet vs scheduler", workers), c.Engines(), s.Engines())
		if prev != nil && (s.TotalBytes != prev.TotalBytes || s.Rounds != prev.Rounds) {
			t.Errorf("accounting differs across worker counts: bytes %d/%d rounds %d/%d",
				s.TotalBytes, prev.TotalBytes, s.Rounds, prev.Rounds)
		}
		prev = s
	}
}
