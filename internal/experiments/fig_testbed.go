package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/topology"
)

// Fig16 reproduces Figure 16: average per-node bandwidth for PATHVECTOR in
// the testbed deployment — 40 ExSPAN instances over real UDP sockets, ring
// overlay with one random peer each (degree <= 3).
func Fig16(p Params) ([]*Result, error) {
	n := p.scaleInt(40)
	res := &Result{
		ID:     "fig16",
		Title:  fmt.Sprintf("Testbed (UDP): PATHVECTOR bandwidth, %d nodes", n),
		Header: []string{"Mode", "Total KB/node", "Overhead vs no-prov", "Fixpoint (s)"},
	}
	topo := topology.Ring(n, rand.New(rand.NewSource(p.Seed)))
	var base float64
	for _, mode := range []engine.ProvMode{engine.ProvNone, engine.ProvReference, engine.ProvValue} {
		kb, fix, err := deployRun(topo, mode)
		if err != nil {
			return nil, fmt.Errorf("fig16 mode=%s: %w", mode, err)
		}
		if mode == engine.ProvNone {
			base = kb
		}
		over := "-"
		if mode != engine.ProvNone && base > 0 {
			over = fmt.Sprintf("+%.0f%%", (kb/base-1)*100)
		}
		res.Rows = append(res.Rows, []string{modeLabel(mode), f2(kb), over, f2(fix.Seconds())})
	}
	return []*Result{res}, nil
}

// Fig17 reproduces Figure 17: fixpoint latency of PATHVECTOR in testbed
// deployments of 5-40 nodes (degree fixed at 3) per provenance mode.
func Fig17(p Params) ([]*Result, error) {
	sizes := []int{5, 10, 20, 30, 40}
	if p.Scale < 1 {
		sizes = sizes[:p.scaleInt(len(sizes))]
	}
	res := &Result{
		ID:     "fig17",
		Title:  "Testbed (UDP): PATHVECTOR fixpoint latency (s) vs network size",
		Header: []string{"Nodes", modeLabel(engine.ProvValue), modeLabel(engine.ProvReference), modeLabel(engine.ProvNone)},
	}
	for _, n := range sizes {
		topo := topology.Ring(n, rand.New(rand.NewSource(p.Seed+int64(n))))
		row := []string{fmt.Sprintf("%d", n)}
		for _, mode := range []engine.ProvMode{engine.ProvValue, engine.ProvReference, engine.ProvNone} {
			_, fix, err := deployRun(topo, mode)
			if err != nil {
				return nil, fmt.Errorf("fig17 n=%d mode=%s: %w", n, mode, err)
			}
			row = append(row, f2(fix.Seconds()))
		}
		res.Rows = append(res.Rows, row)
	}
	return []*Result{res}, nil
}

func deployRun(topo *topology.Topology, mode engine.ProvMode) (avgKB float64, fixpoint time.Duration, err error) {
	cl, err := deploy.NewCluster(deploy.Config{Topo: topo, Prog: apps.PathVector(), Mode: mode})
	if err != nil {
		return 0, 0, err
	}
	defer cl.Stop()
	cl.Start()
	insertStart := time.Now()
	cl.InsertLinks()
	if _, err := cl.WaitFixpoint(60 * time.Second); err != nil {
		return 0, 0, err
	}
	if err := cl.Err(); err != nil {
		return 0, 0, err
	}
	return cl.AvgSentKB(), time.Since(insertStart), nil
}
