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

// queryConfig is one §7.3 query run: the UDF every host answers with (nil
// for POLYNOMIAL), the traversal order, and whether results are cached.
type queryConfig struct {
	udf       func(c *core.Cluster) provquery.UDF
	strategy  provquery.Strategy
	threshold int64
	cacheOn   bool
}

type queryOutcome struct {
	series    []stats.Point
	latencies *stats.CDF
	totalKB   float64
	issued    int
	completed int
}

// runQueryExperiment runs the §7.3 setup: a 100-node transit-stub network
// running MINCOST with reference-based provenance to fixpoint, then each
// node issues five queries per second against random bestPathCost tuples.
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
	return &queryOutcome{
		series:    relSeries(c, start, duration),
		latencies: w.Latencies,
		totalKB:   c.Net.AvgSentBytes() / 1e3,
		issued:    w.Issued,
		completed: w.Completed,
	}, nil
}

// QueryFigures reproduces Figures 11-15 from the six distinct §7.3 query
// runs: POLYNOMIAL under BFS without and with caching (Figs 11-12, and the
// POLYNOMIAL row of Fig 15), the #DERIVATION threshold query under BFS,
// DFS and DFS with threshold 3, the average derivation count (Figs 13-14),
// and BDD under BFS (Fig 15).
func QueryFigures(p Params) ([]*Result, error) {
	derivations := func(*core.Cluster) provquery.UDF { return provquery.Derivations() }
	runs := []struct {
		name string
		qc   queryConfig
	}{
		{"Polynomial", queryConfig{strategy: provquery.BFS}},
		{"Polynomial (cached)", queryConfig{strategy: provquery.BFS, cacheOn: true}},
		{"BFS", queryConfig{udf: derivations, strategy: provquery.BFS}},
		{"DFS", queryConfig{udf: derivations, strategy: provquery.DFS}},
		{"DFS-Threshold", queryConfig{udf: derivations, strategy: provquery.DFSThreshold, threshold: 3}},
		{"BDD", queryConfig{
			udf:      func(c *core.Cluster) provquery.UDF { return provquery.BDD(c.Alloc) },
			strategy: provquery.BFS,
		}},
	}
	out := make([]*queryOutcome, len(runs))
	for i, r := range runs {
		o, err := runQueryExperiment(p, r.qc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		out[i] = o
	}
	poly, cached := out[0], out[1]

	// Figure 11: average per-node query bandwidth (KBps) over time.
	fig11 := &Result{
		ID:     "fig11",
		Title:  "Average bandwidth (KBps) for POLYNOMIAL queries, with and without caching",
		Header: []string{"Time (s)", "Without caching", "With caching"},
	}
	for i, pt := range poly.series {
		row := []string{f2(pt.TimeSec)}
		for _, col := range [][]stats.Point{poly.series, cached.series} {
			kbps := 0.0
			if i < len(col) {
				kbps = col[i].MBps * 1000
			}
			row = append(row, f2(kbps))
		}
		fig11.Rows = append(fig11.Rows, row)
	}

	// Figure 12: the CDF of POLYNOMIAL query completion latency.
	fig12 := &Result{
		ID:     "fig12",
		Title:  "CDF of query completion latency (s), with and without caching",
		Header: []string{"Fraction", "Without caching", "With caching"},
		Rows:   quantileRows(poly.latencies, cached.latencies),
	}

	// Figures 13-14: bandwidth and latency CDF per traversal order.
	fig13 := &Result{
		ID:     "fig13",
		Title:  "Average bandwidth (KBps) by query traversal order (#DERIVATION, threshold 3)",
		Header: []string{"Traversal", "Avg KBps", "Total KB/node", "Completed"},
	}
	fig14 := &Result{
		ID:     "fig14",
		Title:  "CDF of query completion latency (s) by traversal order",
		Header: []string{"Fraction"},
	}
	var cdfs []*stats.CDF
	for i := 2; i < 5; i++ { // the #DERIVATION runs
		o := out[i]
		fig13.Rows = append(fig13.Rows, []string{runs[i].name, f2(avgKBps(o.series)), f2(o.totalKB), fmt.Sprintf("%d/%d", o.completed, o.issued)})
		fig14.Header = append(fig14.Header, runs[i].name)
		cdfs = append(cdfs, o.latencies)
	}
	fig14.Rows = quantileRows(cdfs...)

	// Figure 15: POLYNOMIAL vs BDD (absorption-condensed) provenance.
	fig15 := &Result{
		ID:     "fig15",
		Title:  "Average bandwidth (KBps): POLYNOMIAL vs BDD representation",
		Header: []string{"Representation", "Avg KBps", "Total KB/node", "Median latency (s)"},
	}
	for _, i := range []int{0, 5} { // POLYNOMIAL and BDD
		o := out[i]
		fig15.Rows = append(fig15.Rows, []string{
			runs[i].name, f2(avgKBps(o.series)), f2(o.totalKB), fmt.Sprintf("%.4f", o.latencies.Quantile(0.5)),
		})
	}
	return []*Result{fig11, fig12, fig13, fig14, fig15}, nil
}

// quantileRows renders latency CDFs side by side, one row per quantile.
func quantileRows(cdfs ...*stats.CDF) [][]string {
	var rows [][]string
	for _, q := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0} {
		row := []string{f2(q)}
		for _, cdf := range cdfs {
			row = append(row, fmt.Sprintf("%.4f", cdf.Quantile(q)))
		}
		rows = append(rows, row)
	}
	return rows
}

// avgKBps is the mean of a per-node bandwidth series, in KBps.
func avgKBps(series []stats.Point) float64 {
	var avg float64
	for _, pt := range series {
		avg += pt.MBps * 1000
	}
	if len(series) > 0 {
		avg /= float64(len(series))
	}
	return avg
}
