package core_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/drivertest"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/topology"
)

// nonLocalMinCost is MINCOST written the "natural" way, with sp2's body
// spanning two locations (@S holds the link, @Z holds the best cost) — the
// form a protocol author writes before the localization rewrite runs.
const nonLocalMinCost = `
sp1 pathCost(@S,D,C) :- link(@S,D,C).
sp2 pathCost(@S,D,C) :- link(@S,Z,C1), bestPathCost(@Z,D,C2), C = C1 + C2.
sp3 bestPathCost(@S,D,min<C>) :- pathCost(@S,D,C).
`

// TestLocalizationEndToEnd: localizing the non-local MINCOST and running
// it yields the same bestPathCost fixpoint as the hand-localized program
// from the paper — and the localized program composes with the provenance
// rewrite and still reaches the same fixpoint.
func TestLocalizationEndToEnd(t *testing.T) {
	topo := topology.Figure3()

	reference := drivertest.Simnet(t, core.Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvNone}).Cluster
	want := tupleSet(reference, "bestPathCost")

	nonLocal := ndlog.MustParse(nonLocalMinCost)
	if err := ndlog.Validate(nonLocal); err == nil {
		t.Fatal("non-localized program unexpectedly validates")
	}
	localized, err := ndlog.Localize(nonLocal)
	if err != nil {
		t.Fatal(err)
	}
	if err := ndlog.Validate(localized); err != nil {
		t.Fatalf("localized program invalid: %v", err)
	}

	run := func(prog *ndlog.Program, mode engine.ProvMode) map[string]bool {
		c := drivertest.Simnet(t, core.Config{Topo: topo, Prog: prog, Mode: mode}).Cluster
		return tupleSet(c, "bestPathCost")
	}

	diffSets(t, "localized", want, run(localized, engine.ProvNone))
	diffSets(t, "localized+reference-prov", want, run(localized, engine.ProvReference))

	// Localization then Algorithm 1: the full declarative pipeline.
	rw, err := ndlog.ProvenanceRewrite(localized)
	if err != nil {
		t.Fatal(err)
	}
	diffSets(t, "localized+rewrite", want, run(rw, engine.ProvNone))
}

func tupleSet(c *core.Cluster, pred string) map[string]bool {
	out := map[string]bool{}
	for _, ref := range c.TuplesOf(pred) {
		out[ref.Tuple.String()] = true
	}
	return out
}

func diffSets(t *testing.T, what string, want, got map[string]bool) {
	t.Helper()
	for k := range want {
		if !got[k] {
			t.Errorf("%s: %s missing", what, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: unexpected %s", what, k)
		}
	}
}
