package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/types"
)

// Fig09 reproduces Figure 9: average per-node bandwidth (MBps) for MINCOST
// under high churn — ten randomly selected stub-to-stub links added or
// deleted (equal probability) every 0.5 seconds in a 200-node network.
func Fig09(p Params) (*Result, error) {
	return churnExperiment(p, "fig09",
		"Average bandwidth (MBps) for MINCOST under churn", apps.MinCost())
}

// Fig10 reproduces Figure 10: the same churn workload for PATHVECTOR.
func Fig10(p Params) (*Result, error) {
	return churnExperiment(p, "fig10",
		"Average bandwidth (MBps) for PATHVECTOR under churn", apps.PathVector())
}

func churnExperiment(p Params, id, title string, prog *ndlog.Program) (*Result, error) {
	n := p.scaleInt(200)
	duration := simnet.Time(float64(2500*simnet.Millisecond) * p.Scale)
	if duration < simnet.Second {
		duration = simnet.Second
	}
	churnPeriod := 500 * simnet.Millisecond
	linksPerBatch := 10
	bucket := int64(250 * simnet.Millisecond)

	res := &Result{
		ID:     id,
		Title:  title,
		Note:   fmt.Sprintf("±%d stub-stub links every %.1fs on a %d-node network", linksPerBatch, churnPeriod.Seconds(), n),
		Header: []string{"Time (s)"},
	}
	series := map[engine.ProvMode][]float64{}
	var times []float64
	for _, mode := range modes {
		res.Header = append(res.Header, modeLabel(mode))
		topo := transitStub(n, p.Seed)
		c, err := runToFixpoint(topo, prog, mode, bucket)
		if err != nil {
			return nil, fmt.Errorf("%s mode=%s: %w", id, mode, err)
		}
		c.Net.Traffic.Reset()
		c.Net.Recorder.Reset()
		start := c.Sim.Now()
		// The same seed across modes: every mode must see the identical
		// churn sequence for the comparison to be meaningful.
		rng := rand.New(rand.NewSource(p.Seed + 1000))
		ch := newChurner(topo, rng)
		for at := start; at < start+duration; at += churnPeriod {
			at := at
			c.Sim.At(at, func() { ch.batch(c, linksPerBatch) })
		}
		if err := c.RunUntil(start + duration); err != nil {
			return nil, fmt.Errorf("%s mode=%s: %w", id, mode, err)
		}
		pts := relSeries(c, start, duration)
		var col []float64
		times = times[:0]
		for _, pt := range pts {
			times = append(times, pt.TimeSec)
			col = append(col, pt.MBps)
		}
		series[mode] = col
	}
	for i, ts := range times {
		row := []string{f2(ts)}
		for _, mode := range modes {
			row = append(row, f3(series[mode][i]))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// churner tracks the live set of stub-stub links, plus removed ones
// available for re-addition, mirroring §7.2's add/delete model.
type churner struct {
	rng     *rand.Rand
	present []topology.Link // currently installed stub-stub links
	absent  []topology.Link // candidates for addition
	stubs   []types.NodeID
}

func newChurner(topo *topology.Topology, rng *rand.Rand) *churner {
	ch := &churner{rng: rng}
	stubSet := map[types.NodeID]bool{}
	for _, i := range topo.StubStubLinks {
		l := topo.Links[i]
		ch.present = append(ch.present, l)
		stubSet[l.U] = true
		stubSet[l.V] = true
	}
	for n := range stubSet {
		ch.stubs = append(ch.stubs, n)
	}
	// Map iteration order is random; the stub list feeds seeded link
	// synthesis, so it must be in a canonical order for a fixed seed to
	// yield a fixed churn sequence.
	sort.Slice(ch.stubs, func(i, j int) bool { return ch.stubs[i] < ch.stubs[j] })
	return ch
}

// batch applies k random link operations, each an add or a delete with
// equal probability.
func (ch *churner) batch(c interface {
	AddLink(topology.Link)
	RemoveLink(topology.Link)
}, k int) {
	for i := 0; i < k; i++ {
		if ch.rng.Intn(2) == 0 && len(ch.present) > 1 {
			// Delete a random present stub-stub link.
			j := ch.rng.Intn(len(ch.present))
			l := ch.present[j]
			ch.present = append(ch.present[:j], ch.present[j+1:]...)
			ch.absent = append(ch.absent, l)
			c.RemoveLink(l)
		} else {
			// Add: prefer re-adding a previously removed link; otherwise
			// synthesize a fresh stub-stub link.
			var l topology.Link
			if len(ch.absent) > 0 {
				j := ch.rng.Intn(len(ch.absent))
				l = ch.absent[j]
				ch.absent = append(ch.absent[:j], ch.absent[j+1:]...)
			} else if len(ch.stubs) >= 2 {
				u := ch.stubs[ch.rng.Intn(len(ch.stubs))]
				v := ch.stubs[ch.rng.Intn(len(ch.stubs))]
				if u == v {
					continue
				}
				l = topology.Link{U: u, V: v, Class: topology.ClassStub, Cost: 1}
			} else {
				continue
			}
			ch.present = append(ch.present, l)
			c.AddLink(l)
		}
	}
}
