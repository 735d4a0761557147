package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/topology"
)

// Planner fences on a real protocol workload (ISSUE 8, S1): the CHORD
// program's candidate and lookup rules have >= 3-atom bodies, so the cost
// planner runs on genuine joins — not the synthetic reach/ok program of
// planner_test.go. A stat perturbation forces join orders that differ from
// syntax order, and the fixpoint must stay bit-identical to the NoReplan
// baseline across modes, executors and lookup/liveness churn.

// runChordSched drives the chord workload script on a scheduler: boot the
// EDB, issue lookups, churn a liveness pair out and back in, with a forced
// re-plan at every quiescence point when a hook is set. Returns whether any
// re-plan changed a plan.
func runChordSched(t *testing.T, mode ProvMode, batched bool, hook func(string, string, float64) float64) (*Scheduler, bool) {
	t.Helper()
	prog, err := Compile(apps.Chord())
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.Ring(8, rand.New(rand.NewSource(5)))
	s := newScheduler(prog, mode, topo.N, 0, batched)
	for i := 0; i < s.NumNodes(); i++ {
		if hook == nil {
			s.Node(i).NoReplan = true
		} else {
			s.Node(i).statHook = hook
		}
	}
	changed := false
	step := func() {
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if hook != nil {
			for i := 0; i < s.NumNodes(); i++ {
				if s.Node(i).ForceReplan() {
					changed = true
				}
			}
		}
	}
	apps.BootEDB(topo, true, apps.ChordBase(topo), s.InsertBase)
	step()
	for _, lk := range apps.ChordLookups(topo, 6, 3) {
		s.InsertBase(lk.Loc(), lk)
	}
	step()
	l := topo.Links[0]
	s.DeleteBase(l.U, apps.AliveTuple(l.U, l.V))
	s.DeleteBase(l.V, apps.AliveTuple(l.V, l.U))
	step()
	s.InsertBase(l.U, apps.AliveTuple(l.U, l.V))
	s.InsertBase(l.V, apps.AliveTuple(l.V, l.U))
	step()
	return s, changed
}

// TestChordPlannerEquivalence: perturbed plans on the chord workload reach
// the same fixpoint as the syntax-order baseline — all four provenance
// modes, both executors, three perturbation seeds.
func TestChordPlannerEquivalence(t *testing.T) {
	modes := []ProvMode{ProvNone, ProvReference, ProvValue, ProvCentralized}
	anyChanged := false
	for _, mode := range modes {
		base, _ := runChordSched(t, mode, false, nil)
		for _, seed := range []int64{1, 2, 3} {
			hook := perturbHook(seed)
			for _, batched := range executors {
				s, ch := runChordSched(t, mode, batched, hook)
				anyChanged = anyChanged || ch
				diffStates(t, fmt.Sprintf("chord %s %s seed=%d", mode, executorName(batched), seed),
					base.Engines(), s.Engines())
			}
		}
	}
	if !anyChanged {
		t.Fatal("no perturbation changed a chord plan; the fence is vacuous")
	}
}

// TestChordPlannerPicksNonSyntaxOrder pins the S1 claim directly: with the
// alive relation's statistics inflated, the planner must move the ident
// probe ahead of alive in rule c1's peer-delta pipeline — a join order the
// syntax-order default would never produce — and the -explain rendering
// (the same ExplainPlans output `exspan -explain` prints) must show it.
func TestChordPlannerPicksNonSyntaxOrder(t *testing.T) {
	hook := func(pred, idx string, est float64) float64 {
		if pred == "alive" {
			return est * 1000
		}
		return est
	}
	s, changed := runChordSched(t, ProvReference, true, hook)
	if !changed {
		t.Fatal("inflating alive statistics changed no plan")
	}
	var sb strings.Builder
	s.Node(0).ExplainPlans(&sb)
	out := sb.String()
	i := strings.Index(out, "rule c1")
	if i < 0 {
		t.Fatalf("rule c1 missing from explain output:\n%s", out)
	}
	seg := out[i:]
	if j := strings.Index(seg[1:], "rule "); j >= 0 {
		seg = seg[:j+1]
	}
	d := strings.Index(seg, "delta peer")
	if d < 0 {
		t.Fatalf("rule c1 has no peer-delta pipeline:\n%s", seg)
	}
	pipe := seg[d:]
	if j := strings.Index(pipe[1:], "delta "); j >= 0 {
		pipe = pipe[:j+1]
	}
	if !strings.Contains(pipe, "[planned]") {
		t.Fatalf("peer-delta pipeline not planned:\n%s", pipe)
	}
	ji, ja := strings.Index(pipe, "join ident"), strings.Index(pipe, "join alive")
	if ji < 0 || ja < 0 {
		t.Fatalf("peer-delta pipeline missing joins:\n%s", pipe)
	}
	if ji > ja {
		t.Fatalf("planner kept syntax order (alive before ident) despite 1000x skew:\n%s", pipe)
	}

	// Equivalence against the fixed-plan baseline still holds for this
	// targeted skew, not just the hash perturbations.
	base, _ := runChordSched(t, ProvReference, true, nil)
	diffStates(t, "chord targeted-skew", base.Engines(), s.Engines())
}
