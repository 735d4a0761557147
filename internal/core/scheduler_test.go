package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/drivertest"
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
	cfg := core.Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference}
	c := drivertest.Simnet(t, cfg)
	var prev *driver.Sched
	for _, workers := range []int{1, 0, 4} {
		s := drivertest.Scheduler(t, cfg, workers)
		label := fmt.Sprintf("workers=%d: simnet vs scheduler", workers)
		drivertest.SameState(t, label, c.Engines(), s.Engines())
		sameTraffic(t, label, c.Net.Traffic, s.Traffic)
		if prev != nil && s.Rounds != prev.Rounds {
			t.Errorf("rounds differ across worker counts: %d/%d", s.Rounds, prev.Rounds)
		}
		drivertest.CheckQuiescent(t, s)
		prev = s
	}
	drivertest.CheckQuiescent(t, c)
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

// TestSameRoundFlapKeepsRuleExecInputs: a link deleted and inserted again
// within one Scheduler round nets to no change, so the ruleExec rows that
// read it stay, while its vertex leaves the store and registers again. A
// link inserted between the two registers a vertex of its own, which takes
// whatever handle the store has freed. The rows must still name the flapped
// link — CheckQuiescent rehashes every row's RID from the VIDs its input
// handles resolve to — and the fixpoint must be the simulator's with only
// the new link inserted. A store that released the link's handle when its
// vertex left (or the engine at bury, which the flap also passes through)
// hands that handle to the new link, and the check fails.
func TestSameRoundFlapKeepsRuleExecInputs(t *testing.T) {
	cfg := core.Config{Topo: topology.Figure3(), Prog: apps.MinCost(), Mode: engine.ProvReference}
	flap, extra := apps.LinkTuple(0, 1, 3), apps.LinkTuple(0, 3, 9)
	s := drivertest.Scheduler(t, cfg, 1)
	s.Delete(flap)
	s.Insert(extra)
	s.Insert(flap)
	if err := s.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	want := drivertest.Simnet(t, cfg)
	want.Insert(extra)
	if err := want.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	drivertest.CheckQuiescent(t, s)
	drivertest.CheckQuiescent(t, want)
	drivertest.SameState(t, "simnet vs a scheduler round that flaps a link", want.Engines(), s.Engines())
}
