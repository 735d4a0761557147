// Package experiments reproduces the paper's evaluation (§7): one
// generator per table and figure, each returning a printable Result whose
// rows mirror the series the paper plots. Absolute numbers depend on the
// substrate (our simulator vs the authors' ns-3 testbed); the shapes —
// who wins, by what factor, where crossovers fall — are the reproduction
// target and are recorded in EXPERIMENTS.md.
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
	// Scale in (0, 1] shrinks network sizes and workload durations so the
	// full suite can run as Go benchmarks; 1.0 reproduces the paper's
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

// transitStub builds the §7 transit-stub topology with about n nodes (one
// domain per 100 nodes).
func transitStub(n int, seed int64) *topology.Topology {
	domains := n / 100
	if domains < 1 {
		domains = 1
	}
	return topology.TransitStub(topology.DefaultTransitStub(domains), rand.New(rand.NewSource(seed)))
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
