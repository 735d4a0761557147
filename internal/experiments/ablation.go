package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/algebra"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/provquery"
	"repro/internal/types"
)

// AblationModes compares all four provenance distribution modes of §3 —
// including the centralized baseline the paper argues against — on MINCOST:
// per-node communication cost to fixpoint, server load concentration, and
// fixpoint time.
func AblationModes(p Params) ([]*Result, error) {
	n := p.scaleInt(100)
	topo := transitStub(n, p.Seed)
	res := &Result{
		ID:     "ablation-modes",
		Title:  "Provenance distribution modes on MINCOST (incl. centralized baseline)",
		Note:   "MaxNode is the busiest single node's share of all bytes — the centralized server bottleneck.",
		Header: []string{"Mode", "Avg MB/node", "MaxNode share", "Fixpoint (s)"},
	}
	for _, mode := range []engine.ProvMode{engine.ProvNone, engine.ProvReference, engine.ProvValue, engine.ProvCentralized} {
		c, err := core.NewCluster(core.Config{Topo: topo, Prog: apps.MinCost(), Mode: mode})
		if err != nil {
			return nil, err
		}
		fix, err := c.RunToFixpoint()
		if err != nil {
			return nil, fmt.Errorf("ablation mode=%s: %w", mode, err)
		}
		// Bytes *received* concentrate at the central server.
		var maxShare float64
		if c.Net.TotalBytes > 0 {
			var max int64
			for _, b := range c.Net.RecvBytes {
				if b > max {
					max = b
				}
			}
			maxShare = float64(max) / float64(c.Net.TotalBytes)
		}
		res.Rows = append(res.Rows, []string{
			modeLabel(mode), f3(c.Net.AvgSentBytes() / 1e6), f3(maxShare), f2(fix.Seconds()),
		})
	}
	return []*Result{res}, nil
}

// AblationInvalidation measures the §6.1 trade-off the caching design makes
// under churn: with warm caches, every provenance change propagates
// invalidation flags. The experiment reports the extra bandwidth those
// flags cost against the query savings they protect.
func AblationInvalidation(p Params) ([]*Result, error) {
	n := p.scaleInt(100)
	topo := transitStub(n, p.Seed)
	res := &Result{
		ID:     "ablation-invalidation",
		Title:  "Cache invalidation cost under churn (warm caches, MINCOST)",
		Note:   "Unanswered = query messages dropped by a churn-induced partition (UDP semantics), not staleness.",
		Header: []string{"Config", "Churn KB/node", "Stale answers", "Unanswered"},
	}
	for _, cache := range []bool{false, true} {
		c, err := core.NewCluster(core.Config{
			Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference, CacheOn: cache,
		})
		if err != nil {
			return nil, err
		}
		for _, h := range c.Hosts {
			h.Query.UDF = provquery.Derivations()
		}
		if _, err := c.RunToFixpoint(); err != nil {
			return nil, err
		}
		// Warm the caches with a query wave.
		rng := rand.New(rand.NewSource(p.Seed + 77))
		targets := c.TuplesOf("bestPathCost")
		for i := 0; i < 10*topo.N; i++ {
			ref := targets[rng.Intn(len(targets))]
			c.Query(types.NodeID(rng.Intn(topo.N)), ref.VID, ref.Loc, func([]byte) {})
		}
		c.Sim.Run()

		// Churn with accounting isolated to the churn+requery phase.
		c.Net.Traffic.Reset()
		churn := newChurner(topo, rand.New(rand.NewSource(p.Seed+78)))
		for i := 0; i < 5; i++ {
			churn.batch(c, 4)
			c.Sim.Run()
		}
		if err := c.Err(); err != nil {
			return nil, err
		}

		// Verify coherence: every answer must equal the derivation count
		// folded over the stores' provenance graph, an oracle that bypasses
		// the query protocol and its caches.
		stores := make([]*provenance.Store, len(c.Hosts))
		for i, h := range c.Hosts {
			stores[i] = h.Engine.Store
		}
		graph := provquery.NewStoreGraph(stores...)
		verifyRng := rand.New(rand.NewSource(p.Seed + 79))
		targets = c.TuplesOf("bestPathCost")
		checked, stale, unanswered := 0, 0, 0
		for ; checked < 50 && len(targets) > 0; checked++ {
			ref := targets[verifyRng.Intn(len(targets))]
			want := algebra.Eval(graph.Polynomial(ref.VID), algebra.Counting())
			var got int64 = -1
			c.Query(ref.Loc, ref.VID, ref.Loc, func(pl []byte) { got = provquery.DecodeCount(pl) })
			c.Sim.Run()
			switch {
			case got < 0:
				unanswered++ // partition drop: best-effort UDP
			case got != want:
				stale++
			}
		}
		label := "Caching off"
		if cache {
			label = "Caching on (flags propagate)"
		}
		res.Rows = append(res.Rows, []string{
			label,
			f2(c.Net.AvgSentBytes() / 1e3),
			fmt.Sprintf("%d/%d", stale, checked),
			fmt.Sprintf("%d", unanswered),
		})
	}
	return []*Result{res}, nil
}
