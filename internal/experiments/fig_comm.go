package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/ndlog"
)

// Fig06 reproduces Figure 6: average per-node communication cost (MB) to
// fixpoint for MINCOST on transit-stub networks of 100-500 nodes, under
// value-based (BDD), reference-based and no provenance.
func Fig06(p Params) ([]*Result, error) {
	return commCostSweep(p, "fig06",
		"Average communication cost (MB) for MINCOST", apps.MinCost())
}

// Fig07 reproduces Figure 7: the same sweep for PATHVECTOR.
func Fig07(p Params) ([]*Result, error) {
	return commCostSweep(p, "fig07",
		"Average communication cost (MB) for PATHVECTOR", apps.PathVector())
}

func commCostSweep(p Params, id, title string, prog *ndlog.Program) ([]*Result, error) {
	sizes := []int{100, 200, 300, 400, 500}
	if p.Scale < 1 {
		sizes = sizes[:p.scaleInt(len(sizes))]
	}
	res := &Result{
		ID:     id,
		Title:  title,
		Header: modeHeader("Nodes"),
	}
	for _, n := range sizes {
		topo := transitStub(n, p.Seed)
		row := []string{fmt.Sprintf("%d", topo.N)}
		for _, mode := range modes {
			c, err := runToFixpoint(topo, prog, mode, 0)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d mode=%s: %w", id, n, mode, err)
			}
			row = append(row, f3(c.Net.AvgSentBytes()/1e6))
		}
		res.Rows = append(res.Rows, row)
	}
	return []*Result{res}, nil
}
