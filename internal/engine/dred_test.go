package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/types"
)

// These tests pin the convergent-deletion contract (ISSUE 5, §4.2 cascaded
// deletions): retracting a link that keeps the network connected but kills
// the cheapest route under the unbounded-cost MINCOST program — the classic
// count-to-infinity trigger — must terminate with the correct post-churn
// costs, identically on nodes over a synchronous transport and on the
// Scheduler in every provenance mode; and retracting every link must leave
// zero tuples, prov rows, ruleExec rows, reverse edges and aggregate groups.

// dredSquare is a 4-node cycle with a chord: 0-1(1), 1-2(1), 2-3(1),
// 3-0(1), 0-2(5). Deleting 0-1 disconnects nothing (0 still reaches 1 via
// 3-2) but kills the cheapest 0↔1 and 0↔2 routes, forcing retraction to
// chase re-derivations around the cycle.
func dredSquare() (edges [][2]int, costs map[[2]int]int64) {
	edges = [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}}
	costs = map[[2]int]int64{
		{0, 1}: 1, {1, 2}: 1, {2, 3}: 1, {0, 3}: 1, {0, 2}: 5,
	}
	return edges, costs
}

// releaseRandom releases a random slice of this node's staged retraction
// work — shuffled staged lists, a randomly chosen occupied stratum, a small
// random item budget, sometimes stopping with work still staged —
// deliberately violating the ascending stratified wave order that
// Node.ReleaseStaged uses. Release-time validation must make the fixpoint
// identical anyway.
func (n *Node) releaseRandom(rng *rand.Rand) bool {
	any := false
	rng.Shuffle(len(n.stagedEnts), func(i, j int) {
		n.stagedEnts[i], n.stagedEnts[j] = n.stagedEnts[j], n.stagedEnts[i]
	})
	rng.Shuffle(len(n.stagedGroups), func(i, j int) {
		n.stagedGroups[i], n.stagedGroups[j] = n.stagedGroups[j], n.stagedGroups[i]
	})
	for {
		occupied := map[int]bool{}
		for _, e := range n.stagedEnts {
			occupied[n.stratumOf(e.Tuple.Pred)] = true
		}
		for i := range n.stagedGroups {
			occupied[n.stagedGroups[i].rule.headStratum] = true
		}
		if len(occupied) == 0 {
			break
		}
		strata := make([]int, 0, len(occupied))
		for s := range occupied {
			strata = append(strata, s)
		}
		sort.Ints(strata)
		lim := 1 + rng.Intn(3)
		if n.releaseStratum(strata[rng.Intn(len(strata))], &lim) {
			any = true
		}
		if rng.Intn(2) == 0 {
			break // leave the rest staged for a later pass
		}
	}
	return any
}

// anyStaged reports whether any node still holds staged retraction work.
func anyStaged(nodes []*Node) bool {
	for _, n := range nodes {
		if len(n.stagedEnts) > 0 || len(n.stagedGroups) > 0 {
			return true
		}
	}
	return false
}

// settleRandomized is Settle with releaseRandom in place of ReleaseStaged:
// nodes release in a random order, each a random subset of its staged work,
// looping until nothing is staged anywhere and no release produced work.
func settleRandomized(rng *rand.Rand, nodes []*Node) {
	for {
		released := false
		for _, i := range rng.Perm(len(nodes)) {
			n := nodes[i]
			if n.Err == nil && n.releaseRandom(rng) {
				n.Flush()
				released = true
			}
		}
		if !released && !anyStaged(nodes) {
			return
		}
	}
}

// TestReleaseOrderIndependence is the confluence property test behind the
// stratified batched release: driving the dredSquare churn script while
// releasing staged suspects and aggregate promotions in random permutations
// (random node order, shuffled lists, random strata, random batch sizes)
// must reach exactly the fixpoint of the batched stratified order, in all
// four provenance modes. The wave order of
// Node.ReleaseStaged is a round-trip optimization, never a correctness
// requirement.
func TestReleaseOrderIndependence(t *testing.T) {
	prog, err := Compile(apps.MinCost())
	if err != nil {
		t.Fatal(err)
	}
	edges, costs := dredSquare()
	churn := [][2]int{{0, 3}, {0, 1}}

	runRandom := func(t *testing.T, mode ProvMode, seed int64) []*Node {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		tr := &refTransport{}
		nodes := make([]*Node, 4)
		for i := range nodes {
			nodes[i] = NewNode(types.NodeID(i), prog, mode, tr)
		}
		tr.nodes = nodes
		for _, e := range edges {
			cost := edgeCost(e, costs)
			nodes[e[0]].InsertBase(linkTup(e[0], e[1], cost))
			nodes[e[1]].InsertBase(linkTup(e[1], e[0], cost))
		}
		settleRandomized(rng, nodes)
		for i, e := range churn {
			cost := edgeCost(e, costs)
			nodes[e[0]].DeleteBase(linkTup(e[0], e[1], cost))
			nodes[e[1]].DeleteBase(linkTup(e[1], e[0], cost))
			settleRandomized(rng, nodes)
			if i%2 == 0 {
				nodes[e[0]].InsertBase(linkTup(e[0], e[1], cost))
				nodes[e[1]].InsertBase(linkTup(e[1], e[0], cost))
				settleRandomized(rng, nodes)
			}
		}
		for _, n := range nodes {
			if n.Err != nil {
				t.Fatalf("randomized run (seed %d): %v", seed, n.Err)
			}
		}
		return nodes
	}

	for _, mode := range []ProvMode{ProvNone, ProvReference, ProvValue, ProvCentralized} {
		t.Run(mode.String(), func(t *testing.T) {
			ref := runSerialRef(t, prog, mode, 4, edges, churn, costs)
			for seed := int64(1); seed <= 4; seed++ {
				got := runRandom(t, mode, seed)
				diffStates(t, fmt.Sprintf("%s seed=%d", mode, seed), ref, got)
			}
		})
	}
}

func TestConvergentDeletionCyclicMinCost(t *testing.T) {
	prog, err := Compile(apps.MinCost())
	if err != nil {
		t.Fatal(err)
	}
	edges, costs := dredSquare()
	// Churn script: index 0 ({0,3}) is deleted and re-inserted (equivalence
	// harness re-adds even indexes), index 1 ({0,1}) is retracted for good.
	churn := [][2]int{{0, 3}, {0, 1}}
	for _, mode := range []ProvMode{ProvNone, ProvReference, ProvValue, ProvCentralized} {
		t.Run(mode.String(), func(t *testing.T) {
			equivalenceOn(t, prog, mode, 4, edges, churn, costs)
		})
	}

	// Correctness of the surviving costs (not just serial/scheduler
	// agreement): all-pairs shortest paths of the square minus 0-1.
	serial := runSerialRef(t, prog, ProvReference, 4, edges, churn, costs)
	want := map[string]int64{
		"0-1": 3, "0-2": 2, "0-3": 1,
		"1-0": 3, "1-2": 1, "1-3": 2,
		"2-0": 2, "2-1": 1, "2-3": 1,
		"3-0": 1, "3-1": 2, "3-2": 1,
		// Self-routes: MINCOST also derives X→X via the symmetric 2-cycle
		// of each surviving link.
		"0-0": 2, "1-1": 2, "2-2": 2, "3-3": 2,
	}
	got := map[string]int64{}
	for i, n := range serial {
		for _, tu := range n.Tuples("bestPathCost") {
			got[fmt.Sprintf("%d-%d", i, tu.Args[1].AsNode())] = tu.Args[2].AsInt()
		}
	}
	if len(got) != len(want) {
		t.Fatalf("bestPathCost count = %d, want %d (got %v)", len(got), len(want), got)
	}
	for k, c := range want {
		if got[k] != c {
			t.Errorf("bestPathCost %s = %d, want %d", k, got[k], c)
		}
	}
}

// TestFullRetractionCyclicMinCostLeavesNoState retracts every link of the
// cyclic square, one at a time with interleaved fixpoints, on nodes over a
// synchronous transport and on the Scheduler, in every provenance mode — and
// requires the engine to end completely empty: no tuples, no prov or ruleExec
// rows, no reverse edges, no aggregate groups. Before the two-phase
// retraction discipline this diverged (count-to-infinity) for any deletion
// that kept the network connected.
func TestFullRetractionCyclicMinCostLeavesNoState(t *testing.T) {
	prog, err := Compile(apps.MinCost())
	if err != nil {
		t.Fatal(err)
	}
	edges, costs := dredSquare()
	preds := []string{"link", "pathCost", "bestPathCost"}

	checkEmpty := func(t *testing.T, label string, nodes []*Node) {
		t.Helper()
		for i, n := range nodes {
			for _, pred := range preds {
				if c := n.TupleCount(pred); c != 0 {
					t.Errorf("%s: node %d: %d %s tuples survive full retraction", label, i, c, pred)
				}
			}
			if c := n.Store.NumProv(); c != 0 {
				t.Errorf("%s: node %d: %d prov rows leak", label, i, c)
			}
			if c := n.Store.NumRuleExec(); c != 0 {
				t.Errorf("%s: node %d: %d ruleExec rows leak", label, i, c)
			}
			if c := n.Store.NumParents(); c != 0 {
				t.Errorf("%s: node %d: %d reverse edges leak", label, i, c)
			}
			if c := n.AggGroupCount(); c != 0 {
				t.Errorf("%s: node %d: %d aggregate groups leak", label, i, c)
			}
		}
	}

	for _, mode := range []ProvMode{ProvNone, ProvReference, ProvValue, ProvCentralized} {
		// Serial engine under the synchronous transport.
		nodes := runSerialRef(t, prog, mode, 4, edges, nil, costs)
		for _, e := range edges {
			cost := edgeCost(e, costs)
			nodes[e[0]].DeleteBase(linkTup(e[0], e[1], cost))
			nodes[e[1]].DeleteBase(linkTup(e[1], e[0], cost))
			Settle(nodes...)
		}
		checkEmpty(t, "serial "+mode.String(), nodes)

		// The Scheduler.
		label := "sched " + mode.String()
		s := NewScheduler(prog, mode, 4, 0, 0)
		for _, e := range edges {
			cost := edgeCost(e, costs)
			s.InsertBase(types.NodeID(e[0]), linkTup(e[0], e[1], cost))
			s.InsertBase(types.NodeID(e[1]), linkTup(e[1], e[0], cost))
		}
		if err := s.Run(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if s.Node(0).TupleCount("bestPathCost") == 0 {
			t.Fatalf("%s: nothing derived", label)
		}
		for _, e := range edges {
			cost := edgeCost(e, costs)
			s.DeleteBase(types.NodeID(e[0]), linkTup(e[0], e[1], cost))
			s.DeleteBase(types.NodeID(e[1]), linkTup(e[1], e[0], cost))
			if err := s.Run(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		sn := make([]*Node, s.NumNodes())
		for i := range sn {
			sn[i] = s.Node(i)
		}
		checkEmpty(t, label, sn)
	}
}
