package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/types"
)

// Planner-equivalence fences (ISSUE 7): plan choice may change work order,
// never fixpoint state. These tests perturb the cost model's statistics
// through the statHook lever so the greedy planner picks join orders the
// default (syntax-order) plan would not, then require the fixpoint state —
// visible tuples, prov rows, ruleExec rows — to stay bit-identical to the
// NoReplan baseline, on serial nodes and schedulers (both executors), in all four
// provenance modes, from-scratch and under delete/re-insert churn. A fence
// run is vacuous if no perturbation actually flips a plan, so the matrix
// asserts at least one seed changed a plan shape.

// plannerProg is the smallest program the planner acts on: p2 has three body
// atoms (all localized at @Y), is recursive through reach (DRed churn chases
// re-derivations around cycles), and joins a side relation ok whose
// cardinality differs from link's — so cost perturbations can flip which of
// reach/ok is probed first.
func plannerProg(t testing.TB) *Program {
	t.Helper()
	prog, err := Compile(ndlog.MustParse(`
p1 reach(@Y,X) :- link(@X,Y,C), ok(@X,C).
p2 reach(@Z,X) :- link(@Y,Z,C), reach(@Y,X), ok(@Y,C).
`))
	if err != nil {
		t.Fatal(err)
	}
	if !prog.planable {
		t.Fatal("planner program classified non-planable")
	}
	return prog
}

func okTup(u int, c int64) types.Tuple {
	return types.NewTuple("ok", types.Node(types.NodeID(u)), types.Int(c))
}

// perturbHook builds a deterministic stat perturbation: a pure multiplier
// plus tie-breaking epsilon derived from (pred, index, seed). Different seeds
// skew the cost model differently, forcing alternative join orders without
// touching evaluation itself.
func perturbHook(seed int64) func(pred, idx string, est float64) float64 {
	return func(pred, idx string, est float64) float64 {
		h := uint64(seed)*0x9E3779B97F4A7C15 + 0xcbf29ce484222325
		for _, b := range []byte(pred + "/" + idx) {
			h ^= uint64(b)
			h *= 1099511628211
		}
		return est*(float64(1+h%16)/4.0) + float64(h%7)*0.01
	}
}

// plannerOp is one base-fact mutation at a node; plannerStep groups the
// mutations between two quiescence points (where hooked runs force a
// re-plan).
type plannerOp struct {
	node int
	tup  types.Tuple
}

type plannerStep struct {
	del []plannerOp
	ins []plannerOp
}

// tuples lists the step's insertions.
func (st plannerStep) tuples() []types.Tuple {
	out := make([]types.Tuple, len(st.ins))
	for i, op := range st.ins {
		out[i] = op.tup
	}
	return out
}

// plannerScript builds the shared insert/churn script: links both directions
// plus an ok(cost) table per node, then per churn edge a deletion step that
// re-inserts even-indexed edges (the dred harness convention) and cycles ok
// facts through delete/re-insert so retraction cascades cross the planned
// third atom too.
func plannerScript(nNodes int, edges, churn [][2]int) []plannerStep {
	var boot plannerStep
	for _, e := range edges {
		cost := edgeCost(e, nil)
		boot.ins = append(boot.ins,
			plannerOp{e[0], linkTup(e[0], e[1], cost)},
			plannerOp{e[1], linkTup(e[1], e[0], cost)})
	}
	for u := 0; u < nNodes; u++ {
		for c := int64(1); c <= 5; c++ {
			boot.ins = append(boot.ins, plannerOp{u, okTup(u, c)})
		}
	}
	script := []plannerStep{boot}
	for i, e := range churn {
		cost := edgeCost(e, nil)
		var st plannerStep
		st.del = append(st.del,
			plannerOp{e[0], linkTup(e[0], e[1], cost)},
			plannerOp{e[1], linkTup(e[1], e[0], cost)})
		if i%2 == 0 {
			st.ins = append(st.ins,
				plannerOp{e[0], linkTup(e[0], e[1], cost)},
				plannerOp{e[1], linkTup(e[1], e[0], cost)})
		}
		if i%3 == 0 {
			st.del = append(st.del, plannerOp{e[0], okTup(e[0], cost)})
			st.ins = append(st.ins, plannerOp{e[0], okTup(e[0], cost)})
		}
		script = append(script, st)
	}
	return script
}

// runPlannerSerial drives the script on serial nodes under the synchronous
// reference transport. hook == nil pins the compile-time plans (NoReplan
// baseline); otherwise the hook perturbs the cost model and every step
// boundary forces a re-plan. Reports whether any re-plan changed a plan.
func runPlannerSerial(t *testing.T, prog *Program, mode ProvMode, nNodes int,
	script []plannerStep, hook func(string, string, float64) float64) ([]*Node, bool) {
	t.Helper()
	tr := &refTransport{}
	nodes := make([]*Node, nNodes)
	for i := range nodes {
		nodes[i] = NewNode(types.NodeID(i), prog, mode, tr, nil)
		if hook == nil {
			nodes[i].NoReplan = true
		} else {
			nodes[i].statHook = hook
		}
	}
	tr.nodes = nodes
	sharedVars(nodes, script[0].tuples())
	changed := false
	for _, st := range script {
		for _, op := range st.del {
			nodes[op.node].DeleteBase(op.tup)
		}
		Settle(nodes...)
		for _, op := range st.ins {
			nodes[op.node].InsertBase(op.tup)
		}
		Settle(nodes...)
		if hook != nil {
			for _, n := range nodes {
				if n.ForceReplan() {
					changed = true
				}
			}
		}
	}
	for _, n := range nodes {
		if n.Err != nil {
			t.Fatalf("serial planner run: %v", n.Err)
		}
	}
	return nodes, changed
}

// runPlannerSched drives the same script through a scheduler, one Run per
// step (deletions and re-insertions batched, as runSched does).
func runPlannerSched(t *testing.T, prog *Program, mode ProvMode, nNodes int, batched bool,
	script []plannerStep, hook func(string, string, float64) float64) (*Scheduler, bool) {
	t.Helper()
	s := newScheduler(prog, mode, nNodes, 0, batched)
	sharedVars(s.nodes, script[0].tuples())
	for i := 0; i < s.NumNodes(); i++ {
		if hook == nil {
			s.Node(i).NoReplan = true
		} else {
			s.Node(i).statHook = hook
		}
	}
	changed := false
	for _, st := range script {
		for _, op := range st.del {
			s.DeleteBase(types.NodeID(op.node), op.tup)
		}
		for _, op := range st.ins {
			s.InsertBase(types.NodeID(op.node), op.tup)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("scheduler planner run: %v", err)
		}
		if hook != nil {
			for i := 0; i < s.NumNodes(); i++ {
				if s.Node(i).ForceReplan() {
					changed = true
				}
			}
		}
	}
	return s, changed
}

// TestPlannerEquivalence is the tentpole fence: randomized stat perturbations
// force different join orders, and the fixpoint state stays bit-identical to
// the syntax-order (NoReplan) serial baseline — serial and scheduled, all four
// provenance modes, with churn.
func TestPlannerEquivalence(t *testing.T) {
	prog := plannerProg(t)
	const nNodes = 10
	edges := randomLinks(nNodes, 5, rand.New(rand.NewSource(7)))
	var churn [][2]int
	for i, e := range edges {
		if i%3 == 0 {
			churn = append(churn, e)
		}
	}
	script := plannerScript(nNodes, edges, churn)

	modes := []ProvMode{ProvNone, ProvReference, ProvValue, ProvCentralized}
	seeds := []int64{1, 2, 3}
	anyChanged := false
	for _, mode := range modes {
		base, _ := runPlannerSerial(t, prog, mode, nNodes, script, nil)
		for _, seed := range seeds {
			hook := perturbHook(seed)
			got, ch := runPlannerSerial(t, prog, mode, nNodes, script, hook)
			anyChanged = anyChanged || ch
			diffStates(t, fmt.Sprintf("%s serial seed=%d", mode, seed), base, got)
			for _, batched := range executors {
				s, ch := runPlannerSched(t, prog, mode, nNodes, batched, script, hook)
				anyChanged = anyChanged || ch
				diffStates(t, fmt.Sprintf("%s %s seed=%d", mode, executorName(batched), seed), base, s.Engines())
			}
		}
	}
	if !anyChanged {
		t.Fatal("no perturbation seed changed any plan; the equivalence fence is vacuous")
	}
}

// TestPlannerReplanUnderDeletionChurn retracts every base fact of the cyclic
// planner program one step at a time with a forced (perturbed) re-plan at
// every quiescence point — plan swaps interleaved with DRed's two-phase
// delete-and-rederive — and requires the engine to end completely empty, in
// every provenance mode, serial and under the scheduler with both executors.
func TestPlannerReplanUnderDeletionChurn(t *testing.T) {
	prog := plannerProg(t)
	preds := []string{"link", "ok", "reach"}
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}}
	const nNodes = 4

	// Boot script, then one deletion step per link, then the ok table.
	script := plannerScript(nNodes, edges, nil)
	for _, e := range edges {
		cost := edgeCost(e, nil)
		script = append(script, plannerStep{del: []plannerOp{
			{e[0], linkTup(e[0], e[1], cost)},
			{e[1], linkTup(e[1], e[0], cost)},
		}})
	}
	for u := 0; u < nNodes; u++ {
		var st plannerStep
		for c := int64(1); c <= 5; c++ {
			st.del = append(st.del, plannerOp{u, okTup(u, c)})
		}
		script = append(script, st)
	}

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
		}
	}

	for _, mode := range []ProvMode{ProvNone, ProvReference, ProvValue, ProvCentralized} {
		hook := perturbHook(11)
		nodes, _ := runPlannerSerial(t, prog, mode, nNodes, script, hook)
		checkEmpty(t, "serial "+mode.String(), nodes)
		for _, batched := range executors {
			s, _ := runPlannerSched(t, prog, mode, nNodes, batched, script, hook)
			sn := make([]*Node, s.NumNodes())
			for i := range sn {
				sn[i] = s.Node(i)
			}
			checkEmpty(t, fmt.Sprintf("sched %s %s", mode, executorName(batched)), sn)
		}
	}
}

// TestPlannerCostChoiceAndPushdown pins the two plan-time decisions directly:
// the compile-time default pushes a condition to the earliest step its
// variables are bound (not the plan tail), and the cost model flips an
// adversarial syntax order — a 100×-skewed pair of relations where the
// selective one is written last — on real statistics, no perturbation hook.
func TestPlannerCostChoiceAndPushdown(t *testing.T) {
	prog, err := Compile(ndlog.MustParse(`r1 out(@X,P) :- eGo(@X), big(@X,P), sel(@X,P), P != 0.`))
	if err != nil {
		t.Fatal(err)
	}
	if !prog.planable {
		t.Fatal("3-atom rule classified non-planable")
	}

	// Predicate pushdown: for the eGo delta, P is bound after the first join
	// (big, in syntax order), so the condition must sit at step 1 — between
	// the joins, not after both.
	pl := prog.Rules[0].plans[0]
	if len(pl.steps) != 3 || pl.steps[0].kind != stepJoin ||
		pl.steps[1].kind != stepCond || pl.steps[2].kind != stepJoin {
		t.Fatalf("default eGo plan shape = %v, want [join cond join] (pushdown)", kinds(pl))
	}

	tr := &refTransport{}
	n := NewNode(0, prog, ProvNone, tr, nil)
	tr.nodes = []*Node{n}
	for i := 0; i < 200; i++ {
		n.InsertBase(types.NewTuple("big", types.Node(0), types.Int(int64(i))))
	}
	for i := 0; i < 2; i++ {
		n.InsertBase(types.NewTuple("sel", types.Node(0), types.Int(int64(i))))
	}
	Settle(n)
	if !n.ForceReplan() {
		t.Fatal("cost model kept the adversarial syntax order despite 100× skew")
	}
	if n.ForceReplan() {
		t.Fatal("second re-plan on unchanged statistics flipped plans again")
	}
	// The planned order probes sel before big.
	got := n.plans[0][0]
	if a := prog.Rules[0].atoms[got.steps[0].atom]; a.pred != "sel" {
		t.Fatalf("planned eGo plan probes %s first, want sel", a.pred)
	}
	n.InjectEvent(types.NewTuple("eGo", types.Node(0)))
	Settle(n)
	if n.Err != nil {
		t.Fatal(n.Err)
	}
	if c := n.TupleCount("out"); c != 1 {
		t.Fatalf("out count = %d, want 1 (P=1 passes, P=0 filtered)", c)
	}
}

func kinds(pl *plan) []stepKind {
	out := make([]stepKind, len(pl.steps))
	for i := range pl.steps {
		out[i] = pl.steps[i].kind
	}
	return out
}

// TestExplainPlansDeterministic locks the -explain contract: two snapshots of
// the same node render byte-identically.
func TestExplainPlansDeterministic(t *testing.T) {
	prog := plannerProg(t)
	tr := &refTransport{}
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = NewNode(types.NodeID(i), prog, ProvReference, tr, nil)
	}
	tr.nodes = nodes
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}} {
		cost := edgeCost(e, nil)
		nodes[e[0]].InsertBase(linkTup(e[0], e[1], cost))
		nodes[e[1]].InsertBase(linkTup(e[1], e[0], cost))
		nodes[e[0]].InsertBase(okTup(e[0], cost))
		nodes[e[1]].InsertBase(okTup(e[1], cost))
	}
	Settle(nodes...)
	nodes[0].ForceReplan()
	var a, b sbuf
	nodes[0].ExplainPlans(&a)
	nodes[0].ExplainPlans(&b)
	if a.s != b.s {
		t.Fatalf("ExplainPlans not deterministic:\n%s\n-- vs --\n%s", a.s, b.s)
	}
	if a.s == "" {
		t.Fatal("ExplainPlans wrote nothing")
	}
}

type sbuf struct{ s string }

func (b *sbuf) Write(p []byte) (int, error) {
	b.s += string(p)
	return len(p), nil
}
