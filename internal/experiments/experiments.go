// Package experiments reproduces the paper's evaluation (§7): Tables 1-2
// and Figures 6-17, each a printable Result whose rows mirror the series
// the paper plots. The registry Experiments holds one entry per distinct
// set of runs, and an entry returns every Result its runs feed: the six
// query runs render Figures 11-15. Absolute numbers depend on the substrate
// (our simulator vs the authors' ns-3 testbed); the shapes — who wins, by
// what factor, where crossovers fall — are the reproduction target.
// testdata/figures.golden records every simulated table and figure at
// scale 0.2, seed 7; golden_test.go pins it and checks the shapes.
package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/types"
)

// Params controls experiment scale.
type Params struct {
	// Scale in (0, 1] shrinks network sizes and workload durations for
	// quick runs and the golden fence; 1.0 reproduces the paper's
	// parameters.
	Scale float64
	// Seed drives all randomness (topology generation, workloads, churn).
	Seed int64
}

func (p Params) scaleInt(v int) int {
	s := int(float64(v) * p.Scale)
	if s < 1 {
		s = 1
	}
	return s
}

// Result is one reproduced table or figure.
type Result struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Table renders the result as an aligned text table.
func (r *Result) Table() string {
	s := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	if r.Note != "" {
		s += r.Note + "\n"
	}
	return s + stats.Table(r.Header, r.Rows)
}

// Experiment is one set of runs of the evaluation. Gen returns every Result
// those runs feed, with the IDs listed in IDs, in that order.
type Experiment struct {
	Name     string
	IDs      []string
	Ablation bool // beyond the paper; not part of a full run
	Testbed  bool // runs over real UDP sockets
	Gen      func(Params) ([]*Result, error)
}

// Experiments is the one registry of the evaluation, in paper order; Run
// and cmd/exspan-bench iterate it.
var Experiments = []Experiment{
	{Name: "tables", IDs: []string{"table1", "table2"}, Gen: Tables12},
	{Name: "fig06", IDs: []string{"fig06"}, Gen: Fig06},
	{Name: "fig07", IDs: []string{"fig07"}, Gen: Fig07},
	{Name: "fig08", IDs: []string{"fig08"}, Gen: Fig08},
	{Name: "fig09", IDs: []string{"fig09"}, Gen: Fig09},
	{Name: "fig10", IDs: []string{"fig10"}, Gen: Fig10},
	{Name: "query", IDs: []string{"fig11", "fig12", "fig13", "fig14", "fig15"}, Gen: QueryFigures},
	{Name: "fig16", IDs: []string{"fig16"}, Testbed: true, Gen: Fig16},
	{Name: "fig17", IDs: []string{"fig17"}, Testbed: true, Gen: Fig17},
	{Name: "ablation-modes", IDs: []string{"ablation-modes"}, Ablation: true, Gen: AblationModes},
	{Name: "ablation-invalidation", IDs: []string{"ablation-invalidation"}, Ablation: true, Gen: AblationInvalidation},
}

// Run executes every experiment keep selects, in registry order, streaming
// each Result through emit as soon as its set of runs is done.
func Run(p Params, keep func(Experiment) bool, emit func(*Result)) error {
	for _, e := range Experiments {
		if !keep(e) {
			continue
		}
		rs, err := e.Gen(p)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		for _, r := range rs {
			emit(r)
		}
	}
	return nil
}

// modes is the standard three-way comparison of the evaluation figures.
var modes = []engine.ProvMode{engine.ProvValue, engine.ProvReference, engine.ProvNone}

func modeLabel(m engine.ProvMode) string {
	switch m {
	case engine.ProvValue:
		return "Value-based Prov. (BDD)"
	case engine.ProvReference:
		return "Ref-based Prov."
	case engine.ProvNone:
		return "No Prov."
	case engine.ProvCentralized:
		return "Centralized Prov."
	}
	return m.String()
}

// transitStub builds the §7 transit-stub topology with about n nodes.
func transitStub(n int, seed int64) *topology.Topology {
	return topology.TransitStubN(n, rand.New(rand.NewSource(seed)))
}

// runToFixpoint builds a cluster and runs the protocol to its distributed
// fixpoint, returning the cluster for measurement.
func runToFixpoint(topo *topology.Topology, prog *ndlog.Program, mode engine.ProvMode, bucketNs int64) (*core.Cluster, error) {
	c, err := core.NewCluster(core.Config{
		Topo:              topo,
		Prog:              prog,
		Mode:              mode,
		BandwidthBucketNs: bucketNs,
	})
	if err != nil {
		return nil, err
	}
	if _, err := c.RunToFixpoint(); err != nil {
		return nil, err
	}
	return c, nil
}

// modeSeries runs prog to fixpoint on topo once per provenance mode, then
// measures the phase schedule sets up at the fixpoint time, for duration.
// It renders the phase's per-node bandwidth: one row per time bucket (the
// times of the last mode's series), one MBps column per mode, in modes
// order.
func modeSeries(topo *topology.Topology, prog *ndlog.Program, bucketNs int64, duration simnet.Time,
	schedule func(c *core.Cluster, start simnet.Time)) ([][]string, error) {
	var cols [][]stats.Point
	for _, mode := range modes {
		c, err := runToFixpoint(topo, prog, mode, bucketNs)
		if err != nil {
			return nil, fmt.Errorf("mode=%s: %w", mode, err)
		}
		c.Net.Traffic.Reset()
		c.Net.Recorder.Reset()
		start := c.Sim.Now()
		schedule(c, start)
		if err := c.RunUntil(start + duration); err != nil {
			return nil, fmt.Errorf("mode=%s: %w", mode, err)
		}
		cols = append(cols, relSeries(c, start, duration))
	}
	var rows [][]string
	for i, pt := range cols[len(cols)-1] {
		row := []string{f2(pt.TimeSec)}
		for _, col := range cols {
			row = append(row, f3(col[i].MBps))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// relSeries extracts the recorder series relative to a start time.
func relSeries(c *core.Cluster, start, duration simnet.Time) []stats.Point {
	raw := c.Net.Recorder.Series(int64(start+duration), c.Topo.N)
	bucketSec := float64(c.Net.Recorder.BucketNs) / 1e9
	startSec := start.Seconds()
	var out []stats.Point
	for _, pt := range raw {
		if pt.TimeSec+bucketSec <= startSec {
			continue
		}
		rel := pt.TimeSec - startSec
		if rel < 0 {
			rel = 0 // the bucket straddling the phase start
		}
		out = append(out, stats.Point{TimeSec: rel, MBps: pt.MBps})
	}
	return out
}

// modeHeader is the header of a per-mode table: first, then one column
// label per mode in modes order.
func modeHeader(first string) []string {
	h := []string{first}
	for _, m := range modes {
		h = append(h, modeLabel(m))
	}
	return h
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// queryWorkload drives the §7.3 query experiments: after the protocol
// fixpoint, every node issues rate queries per second for uniformly random
// bestPathCost tuples over the given duration.
type queryWorkload struct {
	Cluster  *core.Cluster
	Rate     int // queries per node per second
	Duration simnet.Time
	Rng      *rand.Rand

	Latencies *stats.CDF
	Issued    int
	Completed int
}

// run schedules and executes the workload, measuring per-query completion
// latency and (via the cluster's recorder) bandwidth over time.
func (w *queryWorkload) run() error {
	c := w.Cluster
	targets := c.TuplesOf("bestPathCost")
	if len(targets) == 0 {
		return fmt.Errorf("experiments: no bestPathCost tuples to query")
	}
	w.Latencies = stats.NewCDF()
	start := c.Sim.Now()
	interval := simnet.Second / simnet.Time(w.Rate)
	for node := 0; node < c.Topo.N; node++ {
		node := node
		// Jitter each node's phase so queries do not synchronize.
		phase := simnet.Time(w.Rng.Int63n(int64(interval)))
		for k := simnet.Time(0); k < w.Duration; k += interval {
			at := start + phase + k
			c.Sim.At(at, func() {
				ref := targets[w.Rng.Intn(len(targets))]
				issued := c.Sim.Now()
				w.Issued++
				c.Query(types.NodeID(node), ref.VID, ref.Loc, func([]byte) {
					w.Completed++
					w.Latencies.Add((c.Sim.Now() - issued).Seconds())
				})
			})
		}
	}
	c.Sim.RunUntil(start + w.Duration + 5*simnet.Second)
	// Let stragglers finish.
	c.Sim.Run()
	return c.Err()
}
