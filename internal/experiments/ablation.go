package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/provquery"
	"repro/internal/types"
)

// AblationModes compares all four provenance distribution modes of §3 —
// including the centralized baseline the paper argues against — on MINCOST:
// per-node communication cost to fixpoint, server load concentration, and
// fixpoint time.
func AblationModes(p Params) (*Result, error) {
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
	return res, nil
}

// AblationInvalidation measures the §6.1 trade-off the caching design makes
// under churn: with warm caches, every provenance change propagates
// invalidation flags. The experiment reports the extra bandwidth those
// flags cost against the query savings they protect.
func AblationInvalidation(p Params) (*Result, error) {
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

		// Verify coherence: every cached answer must match a fresh
		// traversal on a cache-off twin.
		stale, unanswered := 0, 0
		verifyRng := rand.New(rand.NewSource(p.Seed + 79))
		targets = c.TuplesOf("bestPathCost")
		fresh, err := freshCounts(c, targets, verifyRng, 50)
		if err != nil {
			return nil, err
		}
		for i, ref := range fresh.refs {
			var got int64 = -1
			c.Query(ref.Loc, ref.VID, ref.Loc, func(pl []byte) { got = provquery.DecodeCount(pl) })
			c.Sim.Run()
			switch {
			case got < 0:
				unanswered++ // partition drop: best-effort UDP
			case got != fresh.counts[i]:
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
			fmt.Sprintf("%d/%d", stale, len(fresh.refs)),
			fmt.Sprintf("%d", unanswered),
		})
	}
	return res, nil
}

type freshResult struct {
	refs   []core.TupleRef
	counts []int64
}

// freshCounts samples query targets and computes ground-truth derivation
// counts by direct graph walking (a test oracle independent of caches).
func freshCounts(c *core.Cluster, targets []core.TupleRef, rng *rand.Rand, k int) (*freshResult, error) {
	out := &freshResult{}
	for i := 0; i < k && len(targets) > 0; i++ {
		ref := targets[rng.Intn(len(targets))]
		out.refs = append(out.refs, ref)
	}
	// Ground truth: traverse the same cluster with caching disabled on a
	// cloned processor view — equivalently, count via an uncached query
	// strategy. Here we recompute by walking the provenance graph
	// directly, which is exact and local-state-only.
	for _, ref := range out.refs {
		out.counts = append(out.counts, countDerivations(c, ref.VID, ref.Loc, map[types.ID]bool{}))
	}
	return out, nil
}

// countDerivations walks the distributed provenance graph through direct
// store access (test oracle, not the network protocol).
func countDerivations(c *core.Cluster, vid types.ID, loc types.NodeID, visiting map[types.ID]bool) int64 {
	st := c.Hosts[loc].Engine.Store
	derivs := st.Derivations(vid)
	if len(derivs) == 0 {
		return 0
	}
	var total int64
	for _, d := range derivs {
		if d.RID.IsZero() {
			total++
			continue
		}
		re, ok := c.Hosts[d.RLoc].Engine.Store.RuleExecOf(d.RID)
		if !ok {
			continue
		}
		prod := int64(1)
		for _, child := range re.VIDList {
			prod *= countDerivations(c, child, d.RLoc, visiting)
		}
		total += prod
	}
	return total
}
