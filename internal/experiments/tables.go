package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topology"
)

// Tables12 regenerates the paper's Tables 1 and 2 — the prov and ruleExec
// relations for the Figure 3 network running MINCOST — restricted, like the
// paper, to the rows relevant to nodes a and b.
func Tables12(p Params) ([]*Result, error) {
	c, err := core.NewCluster(core.Config{
		Topo: topology.Figure3(),
		Prog: apps.MinCost(),
		Mode: engine.ProvReference,
	})
	if err != nil {
		return nil, err
	}
	if _, err := c.RunToFixpoint(); err != nil {
		return nil, err
	}

	t1 := &Result{
		ID:     "table1",
		Title:  "prov relation (nodes a and b)",
		Header: []string{"Loc", "Derivation", "RID", "RLoc"},
	}
	t2 := &Result{
		ID:     "table2",
		Title:  "ruleExec relation (nodes a and b)",
		Header: []string{"RLoc", "RID", "R", "VIDList"},
	}
	for node := 0; node < 2; node++ { // a and b
		st := c.Hosts[node].Engine.Store
		for _, row := range st.ProvRows() {
			parts := strings.Split(row, " | ")
			if len(parts) == 4 && wantDerivation(parts[1]) {
				t1.Rows = append(t1.Rows, parts)
			}
		}
		for _, row := range st.RuleExecRows() {
			parts := strings.Split(row, " | ")
			if len(parts) == 4 {
				t2.Rows = append(t2.Rows, parts)
			}
		}
	}
	if len(t1.Rows) == 0 || len(t2.Rows) == 0 {
		return nil, fmt.Errorf("tables12: empty provenance relations")
	}
	return []*Result{t1, t2}, nil
}

// wantDerivation mirrors the paper's Table 1 row set: link, pathCost and
// bestPathCost tuples involving destination c plus the base links used.
func wantDerivation(label string) bool {
	return strings.HasPrefix(label, "link(") ||
		strings.HasPrefix(label, "pathCost(") ||
		strings.HasPrefix(label, "bestPathCost(")
}
