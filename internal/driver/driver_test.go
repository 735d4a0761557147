package driver_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/driver"
	"repro/internal/drivertest"
	"repro/internal/engine"
	"repro/internal/provquery"
	"repro/internal/topology"
	"repro/internal/types"
)

// TestQueriesAcrossChurnOnEveryDriver asks every Figure 3 MINCOST
// bestPathCost tuple for its provenance polynomial on each driver, with the
// query cache on, before and after a link goes down and comes back. The
// flaps invalidate cached results while the engines run: on the Scheduler
// each node's invalidations are staged from its own task on the worker
// pool, and a deployment issues queries onto its workers through Do. Every
// driver must answer as the simulator does, up to the order in which a
// tuple's derivations arrived, and end with nothing pending.
func TestQueriesAcrossChurnOnEveryDriver(t *testing.T) {
	cfg := core.Config{Topo: topology.Figure3(), Prog: apps.MinCost(), Mode: engine.ProvReference, CacheOn: true}
	ab := cfg.Topo.Links[0]
	run := func(d driver.Driver) []string {
		answers := ask(t, d)
		for _, up := range []bool{false, true} {
			for _, l := range []types.Tuple{apps.LinkTuple(ab.U, ab.V, ab.Cost), apps.LinkTuple(ab.V, ab.U, ab.Cost)} {
				if up {
					d.Insert(l)
				} else {
					d.Delete(l)
				}
			}
			if err := d.Fixpoint(); err != nil {
				t.Fatal(err)
			}
			answers = append(answers, ask(t, d)...)
		}
		drivertest.CheckQuiescent(t, d)
		var invalidated int64
		for _, p := range d.Processors() {
			invalidated += p.Invalidations
		}
		if invalidated == 0 {
			t.Errorf("%T: vacuous: the flaps invalidated no cached result", d)
		}
		return answers
	}

	want := run(drivertest.Simnet(t, cfg))
	udp, err := driver.NewUDP(deploy.Config{Topo: cfg.Topo, Prog: cfg.Prog, Mode: cfg.Mode},
		func(_ []*engine.Node, procs []*provquery.Processor) {
			for _, p := range procs {
				p.CacheOn = true
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Stop()
	for name, d := range map[string]driver.Driver{
		"scheduler": drivertest.Scheduler(t, cfg, 4),
		"deploy":    udp,
	} {
		if got := run(d); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s answered\n%s\nthe simulator\n%s", name, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// ask queries every visible bestPathCost tuple, in order of its text, from
// the node after its own, and returns each tuple with its canonical answer.
func ask(t *testing.T, d driver.Driver) []string {
	t.Helper()
	engines := d.Engines()
	var targets []types.Tuple
	for _, en := range engines {
		targets = append(targets, en.Tuples("bestPathCost")...)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].String() < targets[j].String() })
	results := make([][]byte, len(targets))
	for i, tu := range targets {
		issuer := types.NodeID((int(tu.Loc()) + 1) % len(engines))
		d.Query(issuer, tu.VID(), tu.Loc(), func(p []byte) { results[i] = p })
	}
	if err := d.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(targets))
	for i, p := range results {
		e, err := provquery.DecodePolynomial(p)
		if err != nil {
			t.Fatalf("%s: %v", targets[i], err)
		}
		out[i] = targets[i].String() + " " + canon(e)
	}
	return out
}

// canon renders a polynomial with the kids of every sum and product sorted:
// two polynomials render alike iff they are equal up to derivation order.
func canon(e *algebra.Expr) string {
	if e.Op == algebra.OpBase {
		return e.Base.Label + "@" + e.Base.Node.String()
	}
	kids := make([]string, len(e.Kids))
	for i, k := range e.Kids {
		kids[i] = canon(k)
	}
	sort.Strings(kids)
	return fmt.Sprintf("%d<%s>(%s)", e.Op, e.Ann, strings.Join(kids, " "))
}
