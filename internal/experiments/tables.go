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
func Tables12(p Params) (*Result, *Result, error) {
	c, err := core.NewCluster(core.Config{
		Topo: topology.Figure3(),
		Prog: apps.MinCost(),
		Mode: engine.ProvReference,
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := c.RunToFixpoint(); err != nil {
		return nil, nil, err
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
		return nil, nil, fmt.Errorf("tables12: empty provenance relations")
	}
	return t1, t2, nil
}

// wantDerivation mirrors the paper's Table 1 row set: link, pathCost and
// bestPathCost tuples involving destination c plus the base links used.
func wantDerivation(label string) bool {
	return strings.HasPrefix(label, "link(") ||
		strings.HasPrefix(label, "pathCost(") ||
		strings.HasPrefix(label, "bestPathCost(")
}

// Experiment is one generator of the evaluation: a paper figure, or a
// beyond-the-paper ablation (Fig 0).
type Experiment struct {
	Name    string
	Fig     int  // the paper's figure number; 0 for an ablation
	Testbed bool // runs over real UDP sockets
	Gen     func(Params) (*Result, error)
}

// Experiments is the one registry of figure and ablation generators, in
// paper order; Run and cmd/exspan-bench iterate it.
var Experiments = []Experiment{
	{"fig06", 6, false, Fig06}, {"fig07", 7, false, Fig07}, {"fig08", 8, false, Fig08},
	{"fig09", 9, false, Fig09}, {"fig10", 10, false, Fig10}, {"fig11", 11, false, Fig11},
	{"fig12", 12, false, Fig12}, {"fig13", 13, false, Fig13}, {"fig14", 14, false, Fig14},
	{"fig15", 15, false, Fig15}, {"fig16", 16, true, Fig16}, {"fig17", 17, true, Fig17},
	{"ablation-modes", 0, false, AblationModes},
	{"ablation-invalidation", 0, false, AblationInvalidation},
}

// Run executes Tables 1-2 and every figure at the given scale in paper
// order, streaming each result through emit as soon as it is ready.
// Deployment figures (16, 17) can be excluded for fully deterministic
// simulated runs.
func Run(p Params, includeTestbed bool, emit func(*Result)) error {
	t1, t2, err := Tables12(p)
	if err != nil {
		return err
	}
	emit(t1)
	emit(t2)
	for _, e := range Experiments {
		if e.Fig == 0 || (e.Testbed && !includeTestbed) {
			continue
		}
		r, err := e.Gen(p)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		emit(r)
	}
	return nil
}
