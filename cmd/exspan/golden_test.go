package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/drivertest"
	"repro/internal/engine"
	"repro/internal/topology"
)

// TestDumpProvGolden is the fence every engine/provenance refactor used to
// run by hand (build the parent's exspan, diff -dump-prov across apps and
// modes): the Figure 3 fixpoint of every built-in program, in every
// provenance mode, hashed (engine.StateDigest — the bytes -dump-prov prints)
// against digests recorded in testdata/dumpprov.golden. A cell is labelled by
// its driver: `sim` cells run on the simulator, one message per ingest, as
// -dump-prov does, and `sched` cells on engine.Scheduler, a round of messages
// per ingest, as a plain run does. A sched cell must also equal the sim
// digest of the same app and mode: the byte-level fence that ingest
// granularity does not move a fixpoint. Reference and value mode also run
// over UDP (`-deploy`), whose digest must equal the sim digest too; deploy
// cells have no golden line of their own. Value mode is in both fences
// because a BDD variable is named by the node that owns its base tuple, and
// each node meets its own base tuples in the same order under every driver.
// Every run ends in drivertest.CheckQuiescent.
//
// A refactor must leave the file untouched. A change that is *meant* to move
// a fixpoint replaces the affected lines with the ones this test logs.
func TestDumpProvGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/dumpprov.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		i := strings.LastIndexByte(line, ' ')
		want[line[:i]] = line[i+1:]
	}

	var computed strings.Builder
	bad := false
	check := func(key, got string) {
		fmt.Fprintf(&computed, "%s %s\n", key, got)
		if want[key] != got {
			t.Errorf("%s: digest %s, golden %q", key, got, want[key])
			bad = true
		}
	}
	for _, app := range []string{"mincost", "pathvector", "packetforward", "chord", "policy"} {
		for _, modeName := range []string{"none", "reference", "value", "centralized"} {
			cfg := cellConfig(t, app, modeName)
			sim := drivertest.Simnet(t, cfg)
			simDigest := engine.StateDigest(sim.Engines())
			check(fmt.Sprintf("%s %s sim", app, modeName), simDigest)
			sched := drivertest.Scheduler(t, cfg, 0)
			schedDigest := engine.StateDigest(sched.Engines())
			check(fmt.Sprintf("%s %s sched", app, modeName), schedDigest)
			if schedDigest != simDigest {
				t.Errorf("%s %s: sched digest %s differs from sim digest %s", app, modeName, schedDigest, simDigest)
			}
			if modeName == "reference" || modeName == "value" {
				udp := drivertest.Deploy(t, deploy.Config{Topo: cfg.Topo, Prog: cfg.Prog, Mode: cfg.Mode,
					Base: cfg.Base, NoLinkTuples: cfg.NoLinkTuples})
				if got := engine.StateDigest(udp.Engines()); got != simDigest {
					t.Errorf("%s %s: deploy digest %s differs from sim digest %s", app, modeName, got, simDigest)
				}
				drivertest.CheckQuiescent(t, udp)
				udp.Stop()
			}
			drivertest.CheckQuiescent(t, sim)
			drivertest.CheckQuiescent(t, sched)
		}
	}
	if bad {
		t.Logf("computed digests:\n%s", computed.String())
	}
}

// cellConfig is one matrix cell as main runs it: the same program loader and
// the same per-app EDB at the CLI's default seed, on the Figure 3 topology.
func cellConfig(t *testing.T, app, modeName string) core.Config {
	t.Helper()
	prog, err := loadProgram(app)
	if err != nil {
		t.Fatal(err)
	}
	mode, err := parseMode(modeName)
	if err != nil {
		t.Fatal(err)
	}
	spec := appSpecs[app]
	cfg := core.Config{Topo: topology.Figure3(), Prog: prog, Mode: mode, NoLinkTuples: spec.noLinks}
	if spec.base != nil {
		cfg.Base = spec.base(cfg.Topo, 42)
	}
	return cfg
}
