package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/simnet"
	"repro/internal/types"
)

// Fig08 reproduces Figure 8: average per-node bandwidth (MBps) over time
// for PACKETFORWARD on a 200-node network. Each node picks a random peer
// and transmits 1024-byte tuples at 100 tuples per second.
func Fig08(p Params) (*Result, error) {
	n := p.scaleInt(200)
	duration := simnet.Time(float64(4*simnet.Second) * p.Scale)
	if duration < simnet.Second {
		duration = simnet.Second
	}
	rate := 100 // packets per node per second
	bucket := int64(simnet.Second / 2)

	res := &Result{
		ID:     "fig08",
		Title:  "Average bandwidth (MBps) for PACKETFORWARD over time",
		Header: []string{"Time (s)"},
	}
	series := map[engine.ProvMode][]float64{}
	var times []float64
	for _, mode := range modes {
		res.Header = append(res.Header, modeLabel(mode))
		topo := transitStub(n, p.Seed)
		c, err := runToFixpoint(topo, apps.PacketForward(), mode, bucket)
		if err != nil {
			return nil, fmt.Errorf("fig08 mode=%s: %w", mode, err)
		}
		// Measure only the data-plane phase.
		c.Net.Traffic.Reset()
		c.Net.Recorder.Reset()
		start := c.Sim.Now()
		rng := rand.New(rand.NewSource(p.Seed + 500)) // identical workload per mode
		interval := simnet.Second / simnet.Time(rate)
		for i := 0; i < topo.N; i++ {
			src := types.NodeID(i)
			dst := types.NodeID(rng.Intn(topo.N))
			if dst == src {
				dst = types.NodeID((i + 1) % topo.N)
			}
			phase := simnet.Time(rng.Int63n(int64(interval)))
			for k := simnet.Time(0); k < duration; k += interval {
				at := start + phase + k
				c.Sim.At(at, func() {
					c.InjectEvent(apps.PacketTuple(src, src, dst, 1024))
				})
			}
		}
		if err := c.RunUntil(start + duration); err != nil {
			return nil, fmt.Errorf("fig08 mode=%s: %w", mode, err)
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

// relSeries extracts the recorder series relative to a start time.
func relSeries(c *core.Cluster, start, duration simnet.Time) []point {
	raw := c.Net.Recorder.Series(int64(start+duration), c.Topo.N)
	bucketSec := float64(c.Net.Recorder.BucketNs) / 1e9
	startSec := start.Seconds()
	var out []point
	for _, pt := range raw {
		if pt.TimeSec+bucketSec <= startSec {
			continue
		}
		rel := pt.TimeSec - startSec
		if rel < 0 {
			rel = 0 // the bucket straddling the phase start
		}
		out = append(out, point{TimeSec: rel, MBps: pt.MBps})
	}
	return out
}

type point struct {
	TimeSec float64
	MBps    float64
}
