// Package drivertest is the one surface the cross-driver fences drive. This
// tree runs a cluster three ways — the simulator (core.Cluster), the round
// scheduler (engine.Scheduler) and a deployment over loopback UDP
// (deploy.Cluster) — and a fence that compares them boots, changes, waits on
// and diffs each the same way: through Driver, with SameState between two
// fixpoints and CheckQuiescent at every one.
//
// The package imports core and deploy, so only their external test packages
// (core_test, deploy_test) and packages above them can use it; engine's
// in-package tests call engine.CheckQuiescent directly.
package drivertest

import (
	"testing"
	"time"

	"repro/internal/apps"
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
	// Insert and Delete apply a base tuple at the node its location
	// specifier names; the next Fixpoint runs what they cause.
	Insert(t types.Tuple)
	Delete(t types.Tuple)
	// Fixpoint runs the cluster until it is quiescent with nothing left to
	// release, and reports the first error of any node.
	Fixpoint() error
}

// Sim is the simulator: nodes ingest one message at a time, on virtual time.
type Sim struct{ *core.Cluster }

// Simnet builds cfg's cluster and runs it to its first fixpoint.
func Simnet(t testing.TB, cfg core.Config) *Sim {
	t.Helper()
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return boot(t, &Sim{c})
}

func (s *Sim) Insert(t types.Tuple) { s.InsertBase(t) }
func (s *Sim) Delete(t types.Tuple) { s.DeleteBase(t) }

func (s *Sim) Fixpoint() error {
	_, err := s.RunToFixpoint()
	return err
}

// Sched is the round scheduler: nodes ingest a round of messages at a time.
type Sched struct{ *engine.Scheduler }

// Scheduler boots cfg's workload — Topo, Prog, Mode, Base and NoLinkTuples,
// seeded as the simulator seeds them — on a Scheduler of the given worker
// count (0: its default) and runs it to its first fixpoint.
func Scheduler(t testing.TB, cfg core.Config, workers int) *Sched {
	t.Helper()
	prog, err := engine.Compile(cfg.Prog)
	if err != nil {
		t.Fatal(err)
	}
	s := engine.NewScheduler(prog, cfg.Mode, cfg.Topo.N, 0, workers)
	apps.BootEDB(cfg.Topo, cfg.NoLinkTuples, cfg.Base, s.InsertBase)
	return boot(t, &Sched{s})
}

func (s *Sched) Insert(t types.Tuple) { s.InsertBase(t.Loc(), t) }
func (s *Sched) Delete(t types.Tuple) { s.DeleteBase(t.Loc(), t) }
func (s *Sched) Fixpoint() error      { return s.Run() }

// UDP is a deployment: one node process per node, over loopback UDP sockets.
type UDP struct{ *deploy.Cluster }

// Deploy starts cfg's cluster, seeds its EDB and waits for its first
// fixpoint; the cluster stops when the test ends.
func Deploy(t testing.TB, cfg deploy.Config) *UDP {
	t.Helper()
	cl, err := deploy.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	cl.Start()
	cl.InsertLinks()
	return boot(t, &UDP{cl})
}

func (u *UDP) Insert(t types.Tuple) {
	np := u.Nodes[t.Loc()]
	np.Do(func() { np.Engine.InsertBase(t) })
}

func (u *UDP) Delete(t types.Tuple) {
	np := u.Nodes[t.Loc()]
	np.Do(func() { np.Engine.DeleteBase(t) })
}

func (u *UDP) Fixpoint() error {
	if _, err := u.WaitFixpoint(30 * time.Second); err != nil {
		return err
	}
	return u.Err()
}

// boot runs a new driver to its first fixpoint.
func boot[D Driver](t testing.TB, d D) D {
	t.Helper()
	if err := d.Fixpoint(); err != nil {
		t.Fatalf("boot fixpoint: %v", err)
	}
	return d
}

// SameState fails the test with what differs between two clusters'
// canonical fixpoint states.
func SameState(t testing.TB, label string, want, got []*engine.Node) {
	t.Helper()
	if d := engine.DiffStates(want, got); d != "" {
		t.Fatalf("%s: fixpoint state differs (- want, + got)\n%s", label, d)
	}
}

// CheckQuiescent fails the test unless d is at a clean fixpoint: every node
// passes engine.CheckQuiescent, and no query processor — the simulator's
// and a deployment's nodes run one — has work pending.
func CheckQuiescent(t testing.TB, d Driver) {
	t.Helper()
	if err := engine.CheckQuiescent(d.Engines()); err != nil {
		t.Fatalf("not quiescent: %v", err)
	}
	var procs []*provquery.Processor
	switch d := d.(type) {
	case *Sim:
		for _, h := range d.Hosts {
			procs = append(procs, h.Query)
		}
	case *UDP:
		for _, np := range d.Nodes {
			procs = append(procs, np.Query)
		}
	}
	for i, p := range procs {
		if n := p.Pending(); n != 0 {
			t.Fatalf("not quiescent: node %d: query processor has %d pending", i, n)
		}
	}
}
