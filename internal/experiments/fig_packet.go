package experiments

import (
	"math/rand"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/types"
)

// Fig08 reproduces Figure 8: average per-node bandwidth (MBps) over time
// for PACKETFORWARD on a 200-node network. Each node picks a random peer
// and transmits 1024-byte tuples at 100 tuples per second.
func Fig08(p Params) ([]*Result, error) {
	n := p.scaleInt(200)
	duration := simnet.Time(float64(4*simnet.Second) * p.Scale)
	if duration < simnet.Second {
		duration = simnet.Second
	}
	rate := 100 // packets per node per second
	topo := transitStub(n, p.Seed)
	rows, err := modeSeries(topo, apps.PacketForward(), int64(simnet.Second/2), duration,
		func(c *core.Cluster, start simnet.Time) {
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
					c.Sim.At(start+phase+k, func() {
						c.InjectEvent(apps.PacketTuple(src, src, dst, 1024))
					})
				}
			}
		})
	if err != nil {
		return nil, err
	}
	return []*Result{{
		ID:     "fig08",
		Title:  "Average bandwidth (MBps) for PACKETFORWARD over time",
		Header: modeHeader("Time (s)"),
		Rows:   rows,
	}}, nil
}
