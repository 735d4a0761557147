// Package drivertest holds the assertions the cross-driver fences share over
// internal/driver's surface: SameState between two fixpoints and
// CheckQuiescent at every one, plus constructors that boot a driver or fail
// the test.
//
// The package imports core and deploy, so only their external test packages
// (core_test, deploy_test) and packages above them can use it; engine's
// in-package tests call engine.CheckQuiescent directly.
package drivertest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/driver"
	"repro/internal/engine"
)

// Simnet builds cfg's cluster on the simulator and runs it to its first
// fixpoint.
func Simnet(t testing.TB, cfg core.Config) *driver.Sim {
	t.Helper()
	s, err := driver.NewSim(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Scheduler boots cfg's workload on a Scheduler of the given worker count
// (0: its default) and runs it to its first fixpoint.
func Scheduler(t testing.TB, cfg core.Config, workers int) *driver.Sched {
	t.Helper()
	s, err := driver.NewSched(cfg, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Deploy starts cfg's cluster over loopback UDP and waits for its first
// fixpoint; the cluster stops when the test ends.
func Deploy(t testing.TB, cfg deploy.Config) *driver.UDP {
	t.Helper()
	u, err := driver.NewUDP(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Stop)
	return u
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
// passes engine.CheckQuiescent, and no node's query processor has work
// pending.
func CheckQuiescent(t testing.TB, d driver.Driver) {
	t.Helper()
	if err := engine.CheckQuiescent(d.Engines()); err != nil {
		t.Fatalf("not quiescent: %v", err)
	}
	for i, p := range d.Processors() {
		if n := p.Pending(); n != 0 {
			t.Fatalf("not quiescent: node %d: query processor has %d pending", i, n)
		}
	}
}
