package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/provquery"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// queryExperiment runs the §7.3 setup: a 100-node transit-stub network
// running MINCOST with reference-based provenance to fixpoint, then each
// node issues five queries per second against random bestPathCost tuples.
type queryConfig struct {
	udf       func(c *core.Cluster) provquery.UDF
	strategy  provquery.Strategy
	threshold int64
	cacheOn   bool
}

type queryOutcome struct {
	series    []point
	latencies *stats.CDF
	totalKB   float64
	issued    int
	completed int
	hits      int64
	misses    int64
}

func runQueryExperiment(p Params, qc queryConfig) (*queryOutcome, error) {
	n := p.scaleInt(100)
	duration := simnet.Time(float64(6*simnet.Second) * p.Scale)
	if duration < simnet.Second {
		duration = simnet.Second
	}
	topo := transitStub(n, p.Seed)
	cfg := core.Config{
		Topo:              topo,
		Prog:              apps.MinCost(),
		Mode:              engine.ProvReference,
		Strategy:          qc.strategy,
		Threshold:         qc.threshold,
		CacheOn:           qc.cacheOn,
		BandwidthBucketNs: int64(500 * simnet.Millisecond),
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	if qc.udf != nil {
		for _, h := range c.Hosts {
			h.Query.UDF = qc.udf(c)
		}
	}
	if _, err := c.RunToFixpoint(); err != nil {
		return nil, err
	}
	c.Net.Traffic.Reset()
	c.Net.Recorder.Reset()
	start := c.Sim.Now()

	w := &queryWorkload{
		Cluster:  c,
		Rate:     5,
		Duration: duration,
		Rng:      rand.New(rand.NewSource(p.Seed + 31)),
	}
	if err := w.run(); err != nil {
		return nil, err
	}
	out := &queryOutcome{
		series:    relSeries(c, start, duration),
		latencies: w.Latencies,
		totalKB:   c.Net.AvgSentBytes() / 1e3,
		issued:    w.Issued,
		completed: w.Completed,
	}
	for _, h := range c.Hosts {
		out.hits += h.Query.CacheHits
		out.misses += h.Query.CacheMisses
	}
	return out, nil
}

// Fig11 reproduces Figure 11: average per-node query bandwidth (KBps) over
// time for POLYNOMIAL queries, with and without result caching.
func Fig11(p Params) (*Result, error) {
	res := &Result{
		ID:     "fig11",
		Title:  "Average bandwidth (KBps) for POLYNOMIAL queries, with and without caching",
		Header: []string{"Time (s)", "Without caching", "With caching"},
	}
	var cols [][]point
	for _, cache := range []bool{false, true} {
		out, err := runQueryExperiment(p, queryConfig{strategy: provquery.BFS, cacheOn: cache})
		if err != nil {
			return nil, fmt.Errorf("fig11 cache=%v: %w", cache, err)
		}
		cols = append(cols, out.series)
	}
	for i := range cols[0] {
		row := []string{f2(cols[0][i].TimeSec)}
		for _, col := range cols {
			kbps := 0.0
			if i < len(col) {
				kbps = col[i].MBps * 1000
			}
			row = append(row, f2(kbps))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Fig12 reproduces Figure 12: the CDF of POLYNOMIAL query completion
// latencies with and without caching.
func Fig12(p Params) (*Result, error) {
	res := &Result{
		ID:     "fig12",
		Title:  "CDF of query completion latency (s), with and without caching",
		Header: []string{"Fraction", "Without caching", "With caching"},
	}
	var cdfs []*stats.CDF
	for _, cache := range []bool{false, true} {
		out, err := runQueryExperiment(p, queryConfig{strategy: provquery.BFS, cacheOn: cache})
		if err != nil {
			return nil, fmt.Errorf("fig12 cache=%v: %w", cache, err)
		}
		cdfs = append(cdfs, out.latencies)
	}
	for _, q := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0} {
		row := []string{f2(q)}
		for _, cdf := range cdfs {
			row = append(row, fmt.Sprintf("%.4f", cdf.Quantile(q)))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// traversalConfigs are the three variants of the #DERIVATION threshold
// query of Figures 13-14 (threshold 3, the average derivation count).
func traversalConfigs() []struct {
	name string
	qc   queryConfig
} {
	return []struct {
		name string
		qc   queryConfig
	}{
		{"BFS", queryConfig{udf: countUDF, strategy: provquery.BFS}},
		{"DFS", queryConfig{udf: countUDF, strategy: provquery.DFS}},
		{"DFS-Threshold", queryConfig{udf: countUDF, strategy: provquery.DFSThreshold, threshold: 3}},
	}
}

func countUDF(*core.Cluster) provquery.UDF { return provquery.Derivations() }

// Fig13 reproduces Figure 13: average query bandwidth (KBps) for the
// #DERIVATION query under BFS, DFS, and DFS with threshold-based pruning.
func Fig13(p Params) (*Result, error) {
	res := &Result{
		ID:     "fig13",
		Title:  "Average bandwidth (KBps) by query traversal order (#DERIVATION, threshold 3)",
		Header: []string{"Traversal", "Avg KBps", "Total KB/node", "Completed"},
	}
	for _, tc := range traversalConfigs() {
		out, err := runQueryExperiment(p, tc.qc)
		if err != nil {
			return nil, fmt.Errorf("fig13 %s: %w", tc.name, err)
		}
		var avg float64
		for _, pt := range out.series {
			avg += pt.MBps * 1000
		}
		if len(out.series) > 0 {
			avg /= float64(len(out.series))
		}
		res.Rows = append(res.Rows, []string{tc.name, f2(avg), f2(out.totalKB), fmt.Sprintf("%d/%d", out.completed, out.issued)})
	}
	return res, nil
}

// Fig14 reproduces Figure 14: the CDF of query completion latency per
// traversal order.
func Fig14(p Params) (*Result, error) {
	res := &Result{
		ID:     "fig14",
		Title:  "CDF of query completion latency (s) by traversal order",
		Header: []string{"Fraction"},
	}
	var cdfs []*stats.CDF
	for _, tc := range traversalConfigs() {
		res.Header = append(res.Header, tc.name)
		out, err := runQueryExperiment(p, tc.qc)
		if err != nil {
			return nil, fmt.Errorf("fig14 %s: %w", tc.name, err)
		}
		cdfs = append(cdfs, out.latencies)
	}
	for _, q := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0} {
		row := []string{f2(q)}
		for _, cdf := range cdfs {
			row = append(row, fmt.Sprintf("%.4f", cdf.Quantile(q)))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Fig15 reproduces Figure 15: average query bandwidth for POLYNOMIAL vs
// BDD (absorption-condensed) provenance queries.
func Fig15(p Params) (*Result, error) {
	res := &Result{
		ID:     "fig15",
		Title:  "Average bandwidth (KBps): POLYNOMIAL vs BDD representation",
		Header: []string{"Representation", "Avg KBps", "Total KB/node", "Median latency (s)"},
	}
	configs := []struct {
		name string
		qc   queryConfig
	}{
		{"Polynomial", queryConfig{strategy: provquery.BFS}},
		{"BDD", queryConfig{
			udf:      func(c *core.Cluster) provquery.UDF { return provquery.BDD(c.Alloc) },
			strategy: provquery.BFS,
		}},
	}
	for _, tc := range configs {
		out, err := runQueryExperiment(p, tc.qc)
		if err != nil {
			return nil, fmt.Errorf("fig15 %s: %w", tc.name, err)
		}
		var avg float64
		for _, pt := range out.series {
			avg += pt.MBps * 1000
		}
		if len(out.series) > 0 {
			avg /= float64(len(out.series))
		}
		res.Rows = append(res.Rows, []string{
			tc.name, f2(avg), f2(out.totalKB), fmt.Sprintf("%.4f", out.latencies.Quantile(0.5)),
		})
	}
	return res, nil
}
