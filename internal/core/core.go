// Package core is the ExSPAN facade: it assembles the declarative
// networking engine, the provenance store and the distributed query
// processor into per-node hosts, and wires them to a transport — the
// discrete-event simulator here, or UDP via package deploy. This is the
// public API that examples, tools and the evaluation harness build on.
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/provquery"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/types"
)

// Config describes one cluster.
type Config struct {
	// Topo is the physical topology (required).
	Topo *topology.Topology
	// Prog is the NDlog program every node runs (required).
	Prog *ndlog.Program
	// Mode selects provenance maintenance (§3 Distribution).
	Mode engine.ProvMode

	// Query-processor configuration. Every processor starts with the
	// POLYNOMIAL UDF; a caller that wants another sets Host.Query.UDF.
	Strategy  provquery.Strategy
	Threshold int64
	CacheOn   bool

	// BandwidthBucketNs, when non-zero, attaches a time-bucketed
	// bandwidth recorder to the network.
	BandwidthBucketNs int64

	// Base holds additional base tuples injected at their owning nodes at
	// virtual time zero, after the topology's link tuples — the seeding
	// hook for protocol workloads whose EDB is richer than links (CHORD's
	// ident/peer/alive overlay, the policy atoms of the path-vector
	// workload). See apps.ChordBase / apps.PolicyTuples.
	Base map[types.NodeID][]types.Tuple

	// NoLinkTuples suppresses the automatic link-tuple injection for
	// programs that do not speak the `link` predicate (CHORD). The
	// physical links still exist — they carry messages — but no base
	// tuples are derived from them.
	NoLinkTuples bool

	// Faults, when non-nil, installs the seeded fault schedule on the
	// simulated network AND routes all inter-node engine and query traffic
	// through reliable transport endpoints (package transport): lost or
	// duplicated deltas would permanently corrupt the count-based
	// provenance state, so faults and reliability come as a pair. A nil
	// plan (the default) leaves the zero-allocation fault-free send path
	// untouched.
	Faults *simnet.FaultPlan
}

// Host is one node's ExSPAN stack.
type Host struct {
	Engine *engine.Node
	Query  *provquery.Processor

	// Ep is the node's reliable-transport endpoint; non-nil only when the
	// cluster runs under a FaultPlan.
	Ep *transport.Endpoint

	// The cluster-wide message free lists (the simulation is
	// single-threaded, so senders and receivers share them). A message is
	// released here, after its handler returns — the simnet delivery is
	// the last point the transport owns it. Under reliable transport the
	// SENDER's endpoint owns a message until it is acked (it may need to
	// retransmit), so frame deliveries must not Put; the Release hook does.
	msgs *engine.MessagePool
	qry  *provquery.MsgPool
}

// HandleMessage implements simnet.Handler by dispatching on payload type.
func (h *Host) HandleMessage(from types.NodeID, payload any, size int) {
	switch m := payload.(type) {
	case *engine.Message:
		h.Engine.HandleMessage(from, m)
		h.msgs.Put(m)
	case *provquery.Msg:
		h.Query.Handle(from, m)
		h.qry.Put(m)
	case *transport.Frame:
		h.Ep.OnFrame(from, m)
	default:
		panic(fmt.Sprintf("core: unknown payload %T", payload))
	}
}

// Cluster is a simulated ExSPAN deployment.
type Cluster struct {
	Cfg   Config
	Sim   *simnet.Sim
	Net   *simnet.Network
	Topo  *topology.Topology
	Prog  *engine.Program
	Hosts []*Host
}

type simTransport struct {
	nw *simnet.Network
}

func (t simTransport) Send(from, to types.NodeID, m *engine.Message) {
	t.nw.Send(from, to, m, m.WireSize())
}

// reliableTransport routes inter-node engine traffic through the node's
// reliable endpoint. Self-sends stay local events (they never touch the
// faulty wire) and keep the direct path.
type reliableTransport struct {
	nw *simnet.Network
	ep *transport.Endpoint
}

func (t reliableTransport) Send(from, to types.NodeID, m *engine.Message) {
	if from == to {
		t.nw.Send(from, to, m, m.WireSize())
		return
	}
	t.ep.Send(to, m, m.WireSize())
}

// NewCluster builds a simulated cluster and schedules the injection of the
// topology's base link tuples at virtual time zero.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Topo == nil || cfg.Prog == nil {
		return nil, fmt.Errorf("core: Topo and Prog are required")
	}
	if f := cfg.Faults; f != nil && !(f.Drop >= 0 && f.Drop < 1 && f.Dup >= 0 && f.Dup < 1) {
		// At Drop 1 nothing arrives, and at Dup 1 every delivery duplicates
		// itself forever: neither run reaches a fixpoint.
		return nil, fmt.Errorf("core: fault Drop %v and Dup %v must lie in [0,1)", f.Drop, f.Dup)
	}
	prog, err := engine.Compile(cfg.Prog)
	if err != nil {
		return nil, err
	}
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, cfg.Topo.N)
	cfg.Topo.Install(nw)
	if cfg.BandwidthBucketNs > 0 {
		nw.Recorder = stats.NewBandwidth(cfg.BandwidthBucketNs)
	}
	nw.InstallFaults(cfg.Faults)

	c := &Cluster{Cfg: cfg, Sim: sim, Net: nw, Topo: cfg.Topo, Prog: prog}
	msgPool := engine.NewMessagePool()
	qryPool := provquery.NewMsgPool()
	for i := 0; i < cfg.Topo.N; i++ {
		id := types.NodeID(i)
		// Under a fault plan the endpoint must exist before the engine (the
		// engine's transport routes through it) while its Deliver hook needs
		// the engine — the closures capture `en` by reference to break the
		// cycle; no frame can arrive before NewCluster returns.
		var en *engine.Node
		var qp *provquery.Processor
		var ep *transport.Endpoint
		if cfg.Faults != nil {
			ep = transport.New(id, transport.Config{}, transport.Hooks{
				Send: func(to types.NodeID, f *transport.Frame) {
					nw.Send(id, to, f, f.Size+transport.HeaderBytes)
				},
				Deliver: func(from types.NodeID, payload any, size int) {
					switch m := payload.(type) {
					case *engine.Message:
						en.HandleMessage(from, m) // sender releases it on ack
					case *provquery.Msg:
						qp.Handle(from, m)
					default:
						panic(fmt.Sprintf("core: unknown reliable payload %T", payload))
					}
				},
				Schedule: func(delayNs int64, fn func()) {
					sim.At(sim.Now()+simnet.Time(delayNs), fn)
				},
				Release: func(payload any) {
					switch m := payload.(type) {
					case *engine.Message:
						msgPool.Put(m)
					case *provquery.Msg:
						qryPool.Put(m)
					}
				},
			})
		}
		var tr engine.Transport = simTransport{nw}
		if ep != nil {
			tr = reliableTransport{nw: nw, ep: ep}
		}
		en = engine.NewNode(id, prog, cfg.Mode, tr)
		en.Msgs = msgPool
		qp = provquery.NewProcessor(id, en.Store, provquery.Polynomial{}, func(to types.NodeID, m *provquery.Msg) {
			if ep != nil && to != id {
				ep.Send(to, m, m.WireSize())
				return
			}
			nw.Send(id, to, m, m.WireSize())
		})
		qp.Strategy = cfg.Strategy
		qp.Threshold = cfg.Threshold
		qp.CacheOn = cfg.CacheOn
		qp.Msgs = qryPool
		h := &Host{Engine: en, Query: qp, Ep: ep, msgs: msgPool, qry: qryPool}
		nw.Register(id, h)
		c.Hosts = append(c.Hosts, h)
	}

	// "Each node is initialized with a link tuple for each of its
	// neighbors." — plus whatever extra EDB the workload seeds (node
	// order, so injection is deterministic).
	sim.At(0, func() {
		apps.BootEDB(cfg.Topo, cfg.NoLinkTuples, cfg.Base, func(at types.NodeID, t types.Tuple) {
			c.Hosts[at].Engine.InsertBase(t)
		})
	})

	// Retraction protocol, phase 2 (engine.ReleasePass): an empty event
	// queue is the simulated cluster's global quiescence point — no deletion
	// message can still be in flight — so staged work is released here, in
	// node order, and the simulation resumes until no host stages more.
	//
	// Under reliable transport "no message events queued" is NOT global
	// quiescence: a delta the network dropped is still in flight for the
	// retraction protocol while its sender waits to retransmit. Whenever
	// any endpoint has unacked payloads, a live retransmission timer
	// exists (transport invariant), so declining to release here lets Run
	// pop that timer and drive recovery first.
	sim.OnIdle = func() bool {
		if cfg.Faults != nil {
			for _, h := range c.Hosts {
				if h.Ep.InFlight() > 0 {
					return false
				}
			}
		}
		return engine.ReleasePass(func(fn func(*engine.Node) bool) bool {
			any := false
			for _, h := range c.Hosts {
				if fn(h.Engine) {
					any = true
				}
			}
			return any
		}, true)
	}
	return c, nil
}

// RunToFixpoint executes the simulation until quiescence and returns the
// virtual fixpoint time.
func (c *Cluster) RunToFixpoint() (simnet.Time, error) {
	t := c.Sim.Run()
	return t, c.Err()
}

// RunUntil executes the simulation until the given virtual time.
func (c *Cluster) RunUntil(t simnet.Time) error {
	c.Sim.RunUntil(t)
	return c.Err()
}

// Err reports the first engine or transport error across hosts.
func (c *Cluster) Err() error {
	for _, h := range c.Hosts {
		if h.Engine.Err != nil {
			return h.Engine.Err
		}
		if h.Ep != nil {
			if err := h.Ep.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Engines returns the hosts' engines in node order — the cluster view
// engine.WriteStates, StateDigest and DiffStates read.
func (c *Cluster) Engines() []*engine.Node {
	out := make([]*engine.Node, len(c.Hosts))
	for i, h := range c.Hosts {
		out[i] = h.Engine
	}
	return out
}

// TransportStats sums the reliable-endpoint counters across hosts. All
// zeros in fault-free runs (no endpoints exist).
func (c *Cluster) TransportStats() transport.Stats {
	var s transport.Stats
	for _, h := range c.Hosts {
		if h.Ep != nil {
			s.Add(h.Ep.Stats)
		}
	}
	return s
}

// AddLink installs a new physical link and its symmetric base tuples at the
// current virtual time (churn).
func (c *Cluster) AddLink(l topology.Link) {
	lat, bps := l.Class.Params()
	c.Net.AddLink(l.U, l.V, simnet.Link{Latency: lat, Bps: bps})
	c.Hosts[l.U].Engine.InsertBase(apps.LinkTuple(l.U, l.V, l.Cost))
	c.Hosts[l.V].Engine.InsertBase(apps.LinkTuple(l.V, l.U, l.Cost))
}

// RemoveLink removes a physical link and retracts its base tuples.
func (c *Cluster) RemoveLink(l topology.Link) {
	c.Net.RemoveLink(l.U, l.V)
	c.Hosts[l.U].Engine.DeleteBase(apps.LinkTuple(l.U, l.V, l.Cost))
	c.Hosts[l.V].Engine.DeleteBase(apps.LinkTuple(l.V, l.U, l.Cost))
}

// InsertBase injects a base tuple at its location specifier's node at the
// current virtual time (workload drivers: lookups, policy churn).
func (c *Cluster) InsertBase(t types.Tuple) {
	c.Hosts[t.Loc()].Engine.InsertBase(t)
}

// DeleteBase retracts a base tuple at its location specifier's node.
func (c *Cluster) DeleteBase(t types.Tuple) {
	c.Hosts[t.Loc()].Engine.DeleteBase(t)
}

// InjectEvent fires an event tuple at its location specifier's node.
func (c *Cluster) InjectEvent(t types.Tuple) {
	loc := t.Loc()
	if loc < 0 || int(loc) >= len(c.Hosts) {
		panic("core: event tuple has no valid location")
	}
	c.Hosts[loc].Engine.InjectEvent(t)
}

// Query issues a provenance query from issuer for the tuple vertex vid
// stored at loc; cb runs (at the issuer) when the result returns.
func (c *Cluster) Query(issuer types.NodeID, vid types.ID, loc types.NodeID, cb func(payload []byte)) {
	c.Hosts[issuer].Query.Query(vid, loc, cb)
}

// TupleRef locates a tuple vertex for querying.
type TupleRef struct {
	Tuple types.Tuple
	VID   types.ID
	Loc   types.NodeID
}

// TuplesOf returns every visible tuple of a predicate across the cluster.
func (c *Cluster) TuplesOf(pred string) []TupleRef {
	var out []TupleRef
	for i, h := range c.Hosts {
		for _, t := range h.Engine.Tuples(pred) {
			out = append(out, TupleRef{Tuple: t, VID: t.VID(), Loc: types.NodeID(i)})
		}
	}
	return out
}

// FindTuple locates a specific tuple by predicate and arguments.
func (c *Cluster) FindTuple(t types.Tuple) (TupleRef, bool) {
	loc := t.Loc()
	if loc < 0 || int(loc) >= len(c.Hosts) {
		return TupleRef{}, false
	}
	for _, cand := range c.Hosts[loc].Engine.Tuples(t.Pred) {
		if cand.Equal(t) {
			return TupleRef{Tuple: t, VID: t.VID(), Loc: loc}, true
		}
	}
	return TupleRef{}, false
}

// RandomTupleOf picks a uniformly random visible tuple of a predicate.
func (c *Cluster) RandomTupleOf(pred string, rng *rand.Rand) (TupleRef, bool) {
	all := c.TuplesOf(pred)
	if len(all) == 0 {
		return TupleRef{}, false
	}
	return all[rng.Intn(len(all))], true
}
