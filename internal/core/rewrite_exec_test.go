package core_test

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/topology"
)

// TestRewriteExecutionMatchesNative is the central equivalence check of
// §4.2: executing the Algorithm-1 rewritten program through the plain
// engine (provenance mode off — all bookkeeping done by the generated
// NDlog rules themselves) must materialize exactly the state the engine's
// native reference-mode hooks maintain: the same tuples, and prov and
// ruleExec relations equal to the native store's rows (engine.FromRewrite).
func TestRewriteExecutionMatchesNative(t *testing.T) {
	for name, prog := range map[string]func() *ndlog.Program{"mincost": apps.MinCost, "pathvector": apps.PathVector} {
		t.Run(name, func(t *testing.T) {
			native, rewritten := rewritePair(t, core.Config{Topo: topology.Figure3(), Prog: prog()})
			for _, c := range []*core.Cluster{native, rewritten} {
				if _, err := c.RunToFixpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if d := rewriteDiff(native, rewritten); d != "" {
				t.Errorf("native vs rewritten (- native, + rewritten):\n%s", d)
			}
			// The rewritten program declares prov and ruleExec; its own
			// canonical state must still list each of their tuples once.
			var sb strings.Builder
			engine.WriteStates(&sb, rewritten.Engines())
			rows := 0
			for _, n := range rewritten.Engines() {
				rows += n.TupleCount("prov") + n.TupleCount("ruleExec")
			}
			if got := strings.Count(sb.String(), "\nprov(@") + strings.Count(sb.String(), "\nruleExec(@"); got != rows || rows == 0 {
				t.Errorf("rewritten state lists %d prov/ruleExec tuples, relations hold %d", got, rows)
			}
		})
	}
}

// rewritePair builds two clusters from cfg: the program with native
// reference-mode provenance, and its Algorithm 1 rewrite with provenance off.
func rewritePair(t *testing.T, cfg core.Config) (native, rewritten *core.Cluster) {
	t.Helper()
	cfg.Mode = engine.ProvReference
	native, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Prog, err = ndlog.ProvenanceRewrite(cfg.Prog); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	cfg.Mode = engine.ProvNone
	if rewritten, err = core.NewCluster(cfg); err != nil {
		t.Fatalf("compile rewritten: %v\n%s", err, cfg.Prog)
	}
	return native, rewritten
}

// rewriteDiff compares a native cluster's canonical state with the native
// form of its rewritten twin's.
func rewriteDiff(native, rewritten *core.Cluster) string {
	views := rewritten.Engines()
	for i, n := range views {
		views[i] = engine.FromRewrite(n)
	}
	return engine.DiffStates(native.Engines(), views)
}
