package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/topology"
)

// This test pins the cross-driver contract on the benchmark workload
// (MINCOST over the §7 transit-stub topology): the Scheduler, whose nodes
// ingest a round of messages at a time, must reach exactly the fixpoint the
// simulation, whose nodes ingest one message at a time, reaches — the same
// canonical state at every node — and the same byte ledger, entry for entry,
// whatever the size of its worker pool. (MINCOST's transient traffic does not
// depend on ingest granularity; PATHVECTOR's transient re-elections do, so
// its ledgers legitimately differ between the drivers.)

func TestSchedulerMatchesSimnet(t *testing.T) {
	if testing.Short() {
		t.Skip("full transit-stub fixpoint")
	}
	topo := topology.TransitStub(topology.DefaultTransitStub(1), rand.New(rand.NewSource(1)))

	// Reference: the simulation (one message per ingest).
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
		label := fmt.Sprintf("workers=%d: simnet vs scheduler", workers)
		sameState(t, label, c.Engines(), s.Engines())
		sameTraffic(t, label, c.Net.Traffic, s.Traffic)
		if prev != nil && s.Rounds != prev.Rounds {
			t.Errorf("rounds differ across worker counts: %d/%d", s.Rounds, prev.Rounds)
		}
		prev = s
	}
}

// sameTraffic requires two byte ledgers to agree entry for entry, and names
// how many nodes differ on each per-node array.
func sameTraffic(t *testing.T, label string, want, got stats.Traffic) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	differ := func(a, b []int64) (n int) {
		for i := range a {
			if a[i] != b[i] {
				n++
			}
		}
		return n
	}
	t.Errorf("%s: ledgers differ: total %d/%d B; nodes differing: sent bytes %d, sent msgs %d, recv bytes %d of %d",
		label, want.TotalBytes, got.TotalBytes, differ(want.SentBytes, got.SentBytes),
		differ(want.SentMsgs, got.SentMsgs), differ(want.RecvBytes, got.RecvBytes), len(want.SentBytes))
}
