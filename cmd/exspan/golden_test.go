package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/types"
)

// TestDumpProvGolden is the fence every engine/provenance refactor used to
// run by hand (build the parent's exspan, diff -dump-prov across apps and
// modes): the Figure 3 fixpoint of every built-in program, in every
// provenance mode, hashed (engine.StateDigest — the bytes -dump-prov prints)
// against digests recorded in testdata/dumpprov.golden. The cell labels name
// drivers, not executors (every node runs rounds): `drain` cells run on the
// simulator, one message per ingest, as -dump-prov does, and `batched` cells
// on engine.Scheduler, a round of messages per ingest, as a plain run does.
// The labels predate that and stay, so the file stays untouched. A batched
// cell must also equal the drain digest of the same app and mode: the
// byte-level fence that ingest granularity does not move a fixpoint.
// Reference and value mode also run over UDP (`-deploy`), whose digest must
// equal the drain digest too; deploy cells have no golden line of their own.
// Value mode is in both fences because a BDD variable is named by the node
// that owns its base tuple, and each node meets its own base tuples in the
// same order under every driver.
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
			drain := stateDigest(t, app, modeName, "drain")
			check(fmt.Sprintf("%s %s drain", app, modeName), drain)
			batched := stateDigest(t, app, modeName, "batched")
			check(fmt.Sprintf("%s %s batched", app, modeName), batched)
			if batched != drain {
				t.Errorf("%s %s: batched digest %s differs from drain digest %s", app, modeName, batched, drain)
			}
			if modeName == "reference" || modeName == "value" {
				if got := stateDigest(t, app, modeName, "deploy"); got != drain {
					t.Errorf("%s %s: deploy digest %s differs from drain digest %s", app, modeName, got, drain)
				}
			}
		}
	}
	if bad {
		t.Logf("computed digests:\n%s", computed.String())
	}
}

// stateDigest runs one matrix cell the way main does (same program loader,
// same per-app EDB at the CLI's default seed) on one driver: the simulator
// (drain), the Scheduler a plain CLI run uses (batched), or UDP (deploy).
func stateDigest(t *testing.T, app, modeName, driver string) string {
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
	topo := topology.Figure3()
	var base map[types.NodeID][]types.Tuple
	if spec.base != nil {
		base = spec.base(topo, 42)
	}
	var nodes []*engine.Node
	switch driver {
	case "batched":
		compiled, err := engine.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		s := engine.NewScheduler(compiled, mode, topo.N, 0, 0)
		apps.BootEDB(topo, spec.noLinks, base, s.InsertBase)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		nodes = s.Engines()
	case "deploy":
		cl, err := deployFixpoint(deploy.Config{Topo: topo, Prog: prog, Mode: mode,
			Base: base, NoLinkTuples: spec.noLinks})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Stop()
		nodes = cl.Engines()
	default:
		c, err := core.NewCluster(core.Config{Topo: topo, Prog: prog, Mode: mode,
			Base: base, NoLinkTuples: spec.noLinks})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunToFixpoint(); err != nil {
			t.Fatal(err)
		}
		nodes = c.Engines()
	}
	return engine.StateDigest(nodes)
}
