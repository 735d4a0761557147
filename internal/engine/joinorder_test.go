package engine

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/ndlog"
	"repro/internal/topology"
	"repro/internal/types"
)

// The join-order permutation fence. Compile picks one join order per delta
// plan (plan.go); a join order changes how a delta's derivations are
// enumerated, never which exist. So every legal order of every rule whose
// order is a choice (CompiledRule.planable) must reproduce the default
// plans' canonical state — relations, prov rows and ruleExec rows — at every
// quiescence point of an insert-then-delete script, in all four provenance
// modes, on nodes over a synchronous transport (one message per ingest) and
// on the Scheduler (a round of messages per ingest).

// permutations returns every ordering of xs.
func permutations(xs []int) [][]int {
	if len(xs) <= 1 {
		return [][]int{slices.Clone(xs)}
	}
	var out [][]int
	for i := range xs {
		rest := slices.Delete(slices.Clone(xs), i, i+1)
		for _, p := range permutations(rest) {
			out = append(out, append([]int{xs[i]}, p...))
		}
	}
	return out
}

// joinOrder lists the body positions a plan joins, in step order.
func joinOrder(pl *plan) []int {
	var out []int
	for i := range pl.steps {
		if pl.steps[i].kind == stepJoin {
			out = append(out, pl.steps[i].atom)
		}
	}
	return out
}

// orderVariants compiles src once per variant. Variant 0 keeps the default
// plans. Variant v ≥ 1 gives every delta plan of every planable rule its
// v-th non-default join order, cycling through the position's orders, so the
// variants together run every legal order of every such plan.
func orderVariants(t *testing.T, src *ndlog.Program) []*Program {
	t.Helper()
	compile := func() *Program {
		prog, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	// alternatives lists the non-default join orders of every delta plan.
	alternatives := func(cr *CompiledRule) [][][]int {
		alts := make([][][]int, len(cr.plans))
		for k, def := range cr.plans {
			var others []int
			for i := range cr.atoms {
				if i != k {
					others = append(others, i)
				}
			}
			for _, o := range permutations(others) {
				if !slices.Equal(o, joinOrder(def)) {
					alts[k] = append(alts[k], o)
				}
			}
		}
		return alts
	}
	progs := []*Program{compile()}
	variants := 1
	for _, cr := range progs[0].Rules {
		if cr.planable() {
			for _, a := range alternatives(cr) {
				variants = max(variants, 1+len(a))
			}
		}
	}
	for v := 1; v < variants; v++ {
		prog := compile()
		for _, cr := range prog.Rules {
			if !cr.planable() {
				continue
			}
			for k, alts := range alternatives(cr) {
				reorder(t, cr, k, alts[(v-1)%len(alts)])
			}
		}
		progs = append(progs, prog)
	}
	return progs
}

// reorder replaces rule cr's delta plan for body position k with one that
// joins the other atoms in order. Every order of a position has the same
// join steps, so the new plan takes the default's joinIDs in step order.
func reorder(t *testing.T, cr *CompiledRule, k int, order []int) {
	t.Helper()
	def := cr.plans[k]
	pl, err := buildPlan(cr, cr.source.BodyAtoms(), k, order)
	if err != nil {
		t.Fatalf("rule %s pos %d order %v: %v", cr.Label, k, order, err)
	}
	ids := make([]int, 0, len(def.steps))
	for i := range def.steps {
		if def.steps[i].kind == stepJoin {
			ids = append(ids, def.steps[i].joinID)
		}
	}
	for i := range pl.steps {
		if pl.steps[i].kind == stepJoin {
			pl.steps[i].joinID, ids = ids[0], ids[1:]
		}
	}
	cr.plans[k] = pl
}

// permStep is one quiescence-to-quiescence step of a fence script: its
// deletions settle before its insertions. Every tuple goes to its own
// location.
type permStep struct {
	del, ins []types.Tuple
}

// permScript is a fence workload: a program and the steps that drive it.
type permScript struct {
	src   *ndlog.Program
	nodes int
	steps []permStep
	// empty marks a script that retracts every base tuple: its final state
	// must equal a never-booted cluster's.
	empty bool
}

// permRun is one cluster of a fence run: nodes over the synchronous
// reference transport, or the Scheduler.
type permRun struct {
	nodes []*Node
	step  func(t *testing.T, st permStep)
}

func startPermRun(prog *Program, mode ProvMode, sc permScript, sched bool) *permRun {
	if sched {
		s := NewScheduler(prog, mode, sc.nodes, 0, 0)
		return &permRun{nodes: s.nodes, step: func(t *testing.T, st permStep) {
			for _, tup := range st.del {
				s.DeleteBase(tup.Loc(), tup)
			}
			for _, tup := range st.ins {
				s.InsertBase(tup.Loc(), tup)
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}}
	}
	tr := &refTransport{}
	nodes := make([]*Node, sc.nodes)
	for i := range nodes {
		nodes[i] = NewNode(types.NodeID(i), prog, mode, tr)
	}
	tr.nodes = nodes
	return &permRun{nodes: nodes, step: func(t *testing.T, st permStep) {
		for _, tup := range st.del {
			nodes[tup.Loc()].DeleteBase(tup)
		}
		Settle(nodes...)
		for _, tup := range st.ins {
			nodes[tup.Loc()].InsertBase(tup)
		}
		Settle(nodes...)
		for _, n := range nodes {
			if n.Err != nil {
				t.Fatal(n.Err)
			}
		}
	}}
}

// checkJoinOrders runs the script on synchronous-transport nodes with the
// default plans — the reference — and, in lockstep, under every order variant
// on such nodes and on the Scheduler, including the default plans on the
// Scheduler.
// Every run must match the reference's StateDigest after every step. It
// returns the labels of the rules that probed with a non-default order.
func checkJoinOrders(t *testing.T, sc permScript) map[string]bool {
	t.Helper()
	progs := orderVariants(t, sc.src)
	if len(progs) < 2 {
		t.Fatal("program has no rule with a join-order choice")
	}
	type variantRun struct {
		label   string
		variant int
		*permRun
	}
	ran := map[string]bool{}
	for _, mode := range []ProvMode{ProvNone, ProvReference, ProvValue, ProvCentralized} {
		ref := startPermRun(progs[0], mode, sc, false)
		var runs []variantRun
		for v, prog := range progs {
			for _, sched := range []bool{false, true} {
				if v > 0 || sched {
					label := fmt.Sprintf("%s sched=%v variant %d", mode, sched, v)
					runs = append(runs, variantRun{label, v, startPermRun(prog, mode, sc, sched)})
				}
			}
		}
		for si, st := range sc.steps {
			ref.step(t, st)
			want := StateDigest(ref.nodes)
			for _, r := range runs {
				r.step(t, st)
				if StateDigest(r.nodes) != want {
					t.Fatalf("%s step %d: state differs from the default plans on synchronous-transport nodes (- default, + variant)\n%s",
						r.label, si, DiffStates(ref.nodes, r.nodes))
				}
			}
		}
		if sc.empty {
			diffStates(t, mode.String()+" full retraction", startPermRun(progs[0], mode, sc, false).nodes, ref.nodes)
		}
		for _, r := range runs {
			if r.variant == 0 {
				continue
			}
			for _, cr := range progs[r.variant].Rules {
				if !cr.planable() {
					continue
				}
				for _, pl := range cr.plans {
					first := slices.IndexFunc(pl.steps, func(s planStep) bool { return s.kind == stepJoin })
					for _, n := range r.nodes {
						if n.joinStats[pl.steps[first].joinID].probes > 0 {
							ran[cr.Label] = true
						}
					}
				}
			}
		}
	}
	return ran
}

// chordPermScript boots CHORD on a ring, issues lookups, and takes one
// liveness pair out and back in.
func chordPermScript() permScript {
	topo := topology.Ring(8, rand.New(rand.NewSource(5)))
	var boot permStep
	apps.BootEDB(topo, true, apps.ChordBase(topo), func(_ types.NodeID, tup types.Tuple) {
		boot.ins = append(boot.ins, tup)
	})
	l := topo.Links[0]
	alive := []types.Tuple{apps.AliveTuple(l.U, l.V), apps.AliveTuple(l.V, l.U)}
	return permScript{src: apps.Chord(), nodes: topo.N, steps: []permStep{
		boot,
		{ins: apps.ChordLookups(topo, 6, 3)},
		{del: alive},
		{ins: alive},
	}}
}

// policyPermScript boots POLICY on a ring, then withdraws one export policy
// and one link, and restores both.
func policyPermScript() permScript {
	topo := topology.Ring(8, rand.New(rand.NewSource(3)))
	var boot permStep
	apps.BootEDB(topo, false, apps.PolicyTuples(topo), func(_ types.NodeID, tup types.Tuple) {
		boot.ins = append(boot.ins, tup)
	})
	l := topo.Links[2]
	var cut []types.Tuple
	if w, ok := apps.ExportPolicy(l.U, l.V); ok {
		cut = append(cut, apps.PolicyTuple(l.U, l.V, w))
	}
	l = topo.Links[5]
	cut = append(cut, apps.LinkTuple(l.U, l.V, l.Cost), apps.LinkTuple(l.V, l.U, l.Cost))
	return permScript{src: apps.Policy(), nodes: topo.N, steps: []permStep{
		boot,
		{del: cut},
		{ins: cut},
	}}
}

// reachPermScript runs a 3-atom recursive reachability program on a small
// ring (value-mode payloads grow with its cycles): boot, delete three links
// one step at a time, then retract every link. Recursion sends the deletions
// through the two-phase over-delete / re-derive protocol around cycles.
func reachPermScript() permScript {
	topo := topology.Ring(5, rand.New(rand.NewSource(21)))
	links := func(ls ...topology.Link) []types.Tuple {
		var out []types.Tuple
		for _, l := range ls {
			out = append(out, apps.LinkTuple(l.U, l.V, l.Cost), apps.LinkTuple(l.V, l.U, l.Cost))
		}
		return out
	}
	all := links(topo.Links...)
	return permScript{src: ndlog.MustParse(`
c0 nbr(@X,Y) :- link(@X,Y,C).
c1 reach(@Y,X) :- link(@X,Y,C).
c2 reach(@Z,X) :- link(@Y,Z,C), reach(@Y,X), nbr(@Y,W).
`), nodes: topo.N, empty: true, steps: []permStep{
		{ins: all},
		{del: links(topo.Links[0])},
		{del: links(topo.Links[2])},
		{del: links(topo.Links[len(topo.Links)-1])},
		{del: all}, // deleting an absent tuple is a no-op
	}}
}

// requireNonDefault fails the test for each of rules that never probed with
// a non-default join order in checkJoinOrders' runs: the fence would be
// vacuous for it.
func requireNonDefault(t *testing.T, ran map[string]bool, rules ...string) {
	t.Helper()
	for _, r := range rules {
		if !ran[r] {
			t.Errorf("rule %s never probed with a non-default join order; the fence is vacuous for it", r)
		}
	}
}

// TestJoinOrderPermutations is the fence on POLICY: every legal join order
// of every delta plan with a choice reaches the default plans' state through
// a policy and link withdrawal and their return, and pp2 really probes with
// a non-default order. The CHORD and recursive-reach workloads have fences
// of their own below.
func TestJoinOrderPermutations(t *testing.T) {
	requireNonDefault(t, checkJoinOrders(t, policyPermScript()), "pp2")
}

// TestChordPlannerEquivalence runs the fence on CHORD: every legal order of
// the candidate and lookup rules (c1, c5, l1, l2) reaches the default plans'
// state through boot, lookups and a liveness pair going out and back in.
func TestChordPlannerEquivalence(t *testing.T) {
	requireNonDefault(t, checkJoinOrders(t, chordPermScript()), "c1", "c5", "l1", "l2")
}

// TestPlannerReplanUnderDeletionChurn runs the fence on the 3-atom recursive
// reach program: links are deleted one at a time and then all retracted, so
// over-delete / re-derive goes around cycles under every join order of c2,
// and the final state must equal a never-booted cluster's.
func TestPlannerReplanUnderDeletionChurn(t *testing.T) {
	requireNonDefault(t, checkJoinOrders(t, reachPermScript()), "c2")
}

// TestChordPlannerPicksNonSyntaxOrder pins one non-default order end to end:
// c1's peer-delta plan is rebuilt to probe ident before alive — the default
// puts alive first, as it binds two positions to ident's one — and run on
// the Scheduler. The -explain rendering (what `exspan -explain`
// prints) must show the order executed, with measured probes on its first
// join, and the state must equal the default plans'.
func TestChordPlannerPicksNonSyntaxOrder(t *testing.T) {
	sc := chordPermScript()
	run := func(reordered bool) []*Node {
		prog, err := Compile(sc.src)
		if err != nil {
			t.Fatal(err)
		}
		if reordered {
			i := slices.IndexFunc(prog.Rules, func(cr *CompiledRule) bool { return cr.Label == "c1" })
			if i < 0 {
				t.Fatal("CHORD has no rule c1")
			}
			cr := prog.Rules[i]
			if got := joinOrder(cr.plans[0]); !slices.Equal(got, []int{1, 2}) {
				t.Fatalf("c1 default peer-delta join order = %v, want [1 2] (alive, ident)", got)
			}
			reorder(t, cr, 0, []int{2, 1})
		}
		r := startPermRun(prog, ProvReference, sc, true)
		for _, st := range sc.steps {
			r.step(t, st)
		}
		return r.nodes
	}
	base, nodes := run(false), run(true)
	diffStates(t, "chord c1 ident-first", base, nodes)

	var sb strings.Builder
	nodes[0].ExplainPlans(&sb)
	out := sb.String()
	i := strings.Index(out, "rule c1:")
	if i < 0 {
		t.Fatalf("rule c1 missing from explain output:\n%s", out)
	}
	seg := out[i:]
	if j := strings.Index(seg[1:], "\nrule "); j >= 0 {
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
		t.Fatalf("explain shows alive before ident, not the order executed:\n%s", pipe)
	}
	if !regexp.MustCompile(`join ident idx\[[^]]*\] probes=[1-9]`).MatchString(pipe) {
		t.Fatalf("peer-delta pipeline shows no probes on its first join, ident:\n%s", pipe)
	}
}

// TestPlanPushesConditionsDown pins predicate pushdown in the default plan:
// for the eGo delta, P is bound after the first join (big, in body order),
// so the condition sits between the two joins, not after both.
func TestPlanPushesConditionsDown(t *testing.T) {
	prog, err := Compile(ndlog.MustParse(`r1 out(@X,P) :- eGo(@X), big(@X,P), sel(@X,P), P != 0.`))
	if err != nil {
		t.Fatal(err)
	}
	pl := prog.Rules[0].plans[0]
	if len(pl.steps) != 3 || pl.steps[0].kind != stepJoin ||
		pl.steps[1].kind != stepCond || pl.steps[2].kind != stepJoin {
		t.Fatalf("default eGo plan steps = %v, want [join cond join]", pl.steps)
	}
	tr := &refTransport{}
	n := NewNode(0, prog, ProvNone, tr)
	tr.nodes = []*Node{n}
	for i := 0; i < 200; i++ {
		n.InsertBase(types.NewTuple("big", types.Node(0), types.Int(int64(i))))
	}
	for i := 0; i < 2; i++ {
		n.InsertBase(types.NewTuple("sel", types.Node(0), types.Int(int64(i))))
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

// TestExplainPlansDeterministic locks the -explain contract on CHORD under
// the Scheduler: two identical runs print byte-identical text, and every
// pipeline of rule c1 shows measured probes.
func TestExplainPlansDeterministic(t *testing.T) {
	explain := func() string {
		prog, err := Compile(apps.Chord())
		if err != nil {
			t.Fatal(err)
		}
		topo := topology.Ring(8, rand.New(rand.NewSource(5)))
		s := NewScheduler(prog, ProvReference, topo.N, 0, 0)
		apps.BootEDB(topo, true, apps.ChordBase(topo), s.InsertBase)
		for _, lk := range apps.ChordLookups(topo, 6, 3) {
			s.InsertBase(lk.Loc(), lk)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		s.Node(0).ExplainPlans(&sb)
		return sb.String()
	}
	a, b := explain(), explain()
	if a != b {
		t.Fatalf("ExplainPlans differs between identical runs:\n%s\n-- vs --\n%s", a, b)
	}
	i := strings.Index(a, "rule c1:")
	if i < 0 {
		t.Fatalf("rule c1 missing from explain output:\n%s", a)
	}
	c1 := a[i:]
	if j := strings.Index(c1[1:], "\nrule "); j >= 0 {
		c1 = c1[:j+1]
	}
	measured := regexp.MustCompile(`probes=[1-9]`)
	pipes := strings.Split(c1, "  delta ")[1:]
	if len(pipes) != 3 {
		t.Fatalf("rule c1 has %d pipelines, want 3:\n%s", len(pipes), c1)
	}
	for _, p := range pipes {
		if !measured.MatchString(p) {
			t.Errorf("c1 pipeline shows no probes:\n  delta %s", p)
		}
	}
}
