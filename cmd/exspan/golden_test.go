package main

import (
	"crypto/sha1"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/types"
)

// TestDumpProvGolden is the fence every engine/provenance refactor used to
// run by hand (build the parent's exspan, diff -dump-prov across apps and
// modes): the Figure 3 fixpoint of every built-in program, in every
// provenance mode, hashed against digests recorded in
// testdata/dumpprov.golden — `drain` cells on the simulator, as -dump-prov
// runs, and `batched` cells on engine.Scheduler, as a plain run does. The
// batched cells (modes whose Scheduler nodes really batch) must also equal
// the drain digest of the same app and mode: the byte-level fence that the
// two executors reach one fixpoint. A digest covers each node's visible
// tuples of every predicate (sorted; value mode adds each tuple's encoded BDD
// payload, centralized mode the prov/ruleExec rows relayed to the server as
// tuples) followed by the prov and ruleExec partitions as -dump-prov prints
// them.
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
			drain := dumpProvDigest(t, app, modeName, false)
			check(fmt.Sprintf("%s %s drain", app, modeName), drain)
			if modeName == "none" || modeName == "reference" {
				batched := dumpProvDigest(t, app, modeName, true)
				check(fmt.Sprintf("%s %s batched", app, modeName), batched)
				if batched != drain {
					t.Errorf("%s %s: batched digest %s differs from drain digest %s", app, modeName, batched, drain)
				}
			}
		}
	}
	if bad {
		t.Logf("computed digests:\n%s", computed.String())
	}
}

// dumpProvDigest runs one matrix cell the way main does (same program
// loader, same per-app EDB at the CLI's default seed): on the simulator, or —
// batched — on the Scheduler a plain CLI run uses.
func dumpProvDigest(t *testing.T, app, modeName string, batched bool) string {
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
	var node func(i int) *engine.Node
	if batched {
		compiled, err := engine.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		s := engine.NewScheduler(compiled, mode, topo.N, 0, 0)
		seedScheduler(s, topo, spec, base)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		node = s.Node
	} else {
		c, err := core.NewCluster(core.Config{Topo: topo, Prog: prog, Mode: mode,
			Base: base, NoLinkTuples: spec.noLinks})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunToFixpoint(); err != nil {
			t.Fatal(err)
		}
		node = func(i int) *engine.Node { return c.Hosts[i].Engine }
	}
	h := sha1.New()
	for i := 0; i < topo.N; i++ {
		en := node(i)
		fmt.Fprintf(h, "node %d\n", i)
		preds := []string{"prov", "ruleExec"} // centralized mode's relayed rows
		for _, p := range en.Prog.Preds() {
			preds = append(preds, p.Name)
		}
		for _, pred := range preds {
			for _, tu := range en.Tuples(pred) {
				io.WriteString(h, tu.String()+"\n")
				if ref, ok := en.PayloadOf(tu); ok {
					fmt.Fprintf(h, "payload %x\n", en.Mgr.Encode(ref, nil))
				}
			}
		}
		for _, row := range en.Store.ProvRows() {
			io.WriteString(h, "prov     "+row+"\n")
		}
		for _, row := range en.Store.RuleExecRows() {
			io.WriteString(h, "ruleExec "+row+"\n")
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
