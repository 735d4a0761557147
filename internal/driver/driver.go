// Package driver is the one surface over the three ways this tree runs a
// cluster: the simulator (core.Cluster), the round scheduler
// (engine.Scheduler) and a deployment over loopback UDP (deploy.Cluster).
// Each adapter boots a workload to its first fixpoint, applies base-tuple
// changes, runs to the next fixpoint and answers distributed provenance
// queries the same way, so the exspan CLI and the cross-driver fences
// (internal/drivertest) drive all three through one path.
package driver

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/apps"
	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/provquery"
	"repro/internal/types"
)

// Driver is a cluster booted to its first fixpoint.
type Driver interface {
	// Engines returns every node's engine in node order. Read them only at
	// a fixpoint.
	Engines() []*engine.Node
	// Processors returns every node's query processor in node order. Read
	// them only at a fixpoint.
	Processors() []*provquery.Processor
	// Insert and Delete apply a base tuple at the node its location
	// specifier names; the next Fixpoint runs what they cause.
	Insert(t types.Tuple)
	Delete(t types.Tuple)
	// Query issues a provenance query from issuer for the tuple vertex vid
	// stored at loc; cb runs when the result returns, at the latest during
	// the next Fixpoint.
	Query(issuer types.NodeID, vid types.ID, loc types.NodeID, cb func(payload []byte))
	// Fixpoint runs the cluster until it is quiescent with nothing left to
	// release and no query message in flight, and reports the first error
	// of any node.
	Fixpoint() error
}

// Setup prepares a cluster's nodes after they are built and before any of
// them evaluates anything: it may turn on a node's join tallies or set the
// query processors' representation. It gets every node's engine and query
// processor in node order. A nil Setup does nothing.
type Setup func(engines []*engine.Node, procs []*provquery.Processor)

// BaseVar names a base tuple's BDD variable in the store of its owner among
// engines, the naming provquery.BDD needs on any driver. A query computes a
// base tuple's annotation at its owner, so the function touches only the
// owner's store, on the owner's turn.
func BaseVar(engines []*engine.Node) func(algebra.Base) bdd.Var {
	return func(b algebra.Base) bdd.Var { return engines[b.Node].Store.BaseVar(b.VID) }
}

// boot runs a new driver to its first fixpoint.
func boot[D Driver](d D) (D, error) {
	if err := d.Fixpoint(); err != nil {
		var none D
		return none, fmt.Errorf("boot fixpoint: %w", err)
	}
	return d, nil
}

// Sim is the simulator: nodes ingest one message at a time, on virtual time.
type Sim struct{ *core.Cluster }

// NewSim builds cfg's cluster and runs it to its first fixpoint.
func NewSim(cfg core.Config, setup Setup) (*Sim, error) {
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	s := &Sim{c}
	if setup != nil {
		setup(s.Engines(), s.Processors())
	}
	return boot(s)
}

func (s *Sim) Insert(t types.Tuple) { s.InsertBase(t) }
func (s *Sim) Delete(t types.Tuple) { s.DeleteBase(t) }

func (s *Sim) Processors() []*provquery.Processor {
	out := make([]*provquery.Processor, len(s.Hosts))
	for i, h := range s.Hosts {
		out[i] = h.Query
	}
	return out
}

func (s *Sim) Fixpoint() error {
	_, err := s.RunToFixpoint()
	return err
}

// Sched is the round scheduler: nodes ingest a round of messages at a time.
// Each node also runs a query processor. Its messages are staged per source
// node and delivered between engine runs in (source node, emission order),
// charged to the Scheduler's byte ledger as engine messages are.
type Sched struct {
	*engine.Scheduler
	procs []*provquery.Processor
	// staged holds each node's unsent query messages; during an engine run
	// only that node's task appends to its slice (cache invalidations).
	// spare is the drained batch, kept for its capacity.
	staged, spare [][]queryMsg
}

// queryMsg is one staged query message.
type queryMsg struct {
	to types.NodeID
	m  *provquery.Msg
}

// NewSched boots cfg's workload — Topo, Prog, Mode, Base and NoLinkTuples,
// seeded as the simulator seeds them, and the query settings Strategy,
// Threshold and CacheOn — on a Scheduler of the given worker count (0: its
// default) and runs it to its first fixpoint. Its query processors start
// with the POLYNOMIAL UDF.
func NewSched(cfg core.Config, workers int, setup Setup) (*Sched, error) {
	prog, err := engine.Compile(cfg.Prog)
	if err != nil {
		return nil, err
	}
	n := cfg.Topo.N
	s := &Sched{Scheduler: engine.NewScheduler(prog, cfg.Mode, n, 0, workers),
		staged: make([][]queryMsg, n), spare: make([][]queryMsg, n)}
	for i := range n {
		id := types.NodeID(i)
		p := provquery.NewProcessor(id, s.Node(i).Store, provquery.Polynomial{}, func(to types.NodeID, m *provquery.Msg) {
			s.staged[id] = append(s.staged[id], queryMsg{to, m})
		})
		p.Strategy, p.Threshold, p.CacheOn = cfg.Strategy, cfg.Threshold, cfg.CacheOn
		// A node's processor sends on that node's goroutine, so each gets a
		// private free list; delivery, serial, returns a message to it.
		p.Msgs = provquery.NewMsgPool()
		s.procs = append(s.procs, p)
	}
	if setup != nil {
		setup(s.Engines(), s.procs)
	}
	apps.BootEDB(cfg.Topo, cfg.NoLinkTuples, cfg.Base, s.InsertBase)
	return boot(s)
}

func (s *Sched) Insert(t types.Tuple)               { s.InsertBase(t.Loc(), t) }
func (s *Sched) Delete(t types.Tuple)               { s.DeleteBase(t.Loc(), t) }
func (s *Sched) Processors() []*provquery.Processor { return s.procs }

func (s *Sched) Query(issuer types.NodeID, vid types.ID, loc types.NodeID, cb func(payload []byte)) {
	s.procs[issuer].Query(vid, loc, cb)
}

// Fixpoint alternates engine runs with query deliveries until neither has
// anything left to do.
func (s *Sched) Fixpoint() error {
	for {
		if err := s.Run(); err != nil {
			return err
		}
		if !s.deliverQueries() {
			return nil
		}
	}
}

// deliverQueries hands every staged query message to its destination's
// processor in (source node, emission order), and reports whether there
// was any. What the handlers send is staged for the next call. A message a
// node sends itself is a local event and is not charged, as on the
// simulator.
func (s *Sched) deliverQueries() bool {
	batch := s.staged
	s.staged, s.spare = s.spare, batch
	delivered := false
	for src, msgs := range batch {
		from := types.NodeID(src)
		for i, qm := range msgs {
			delivered = true
			if qm.to != from {
				s.Recv(qm.to, s.Charge(from, qm.m.WireSize()))
			}
			s.procs[qm.to].Handle(from, qm.m)
			s.procs[src].Msgs.Put(qm.m)
			msgs[i] = queryMsg{}
		}
		batch[src] = msgs[:0]
	}
	return delivered
}

// UDP is a deployment: one node process per node, over loopback UDP sockets.
type UDP struct{ *deploy.Cluster }

// NewUDP starts cfg's cluster, seeds its EDB and waits for its first
// fixpoint. The caller owns the running cluster and must Stop it.
func NewUDP(cfg deploy.Config, setup Setup) (*UDP, error) {
	cl, err := deploy.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	u := &UDP{cl}
	if setup != nil {
		// No worker runs yet, so the nodes are read in place (Engines
		// would wait for the workers).
		engines := make([]*engine.Node, len(cl.Nodes))
		for i, np := range cl.Nodes {
			engines[i] = np.Engine
		}
		setup(engines, u.Processors())
	}
	cl.Start()
	cl.InsertLinks()
	if _, err := boot(u); err != nil {
		cl.Stop()
		return nil, err
	}
	return u, nil
}

func (u *UDP) Insert(t types.Tuple) {
	np := u.Nodes[t.Loc()]
	np.Do(func() { np.Engine.InsertBase(t) })
}

func (u *UDP) Delete(t types.Tuple) {
	np := u.Nodes[t.Loc()]
	np.Do(func() { np.Engine.DeleteBase(t) })
}

func (u *UDP) Processors() []*provquery.Processor {
	out := make([]*provquery.Processor, len(u.Nodes))
	for i, np := range u.Nodes {
		out[i] = np.Query
	}
	return out
}

// Query issues the query on the issuer's worker goroutine, where its
// processor is confined; cb runs there too.
func (u *UDP) Query(issuer types.NodeID, vid types.ID, loc types.NodeID, cb func(payload []byte)) {
	np := u.Nodes[issuer]
	np.Do(func() { np.Query.Query(vid, loc, cb) })
}

func (u *UDP) Fixpoint() error {
	if _, err := u.WaitFixpoint(deploy.DefaultFixpointTimeout); err != nil {
		return err
	}
	return u.Err()
}
