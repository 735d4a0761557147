package main

import (
	"crypto/sha1"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/types"
)

// TestDumpProvGolden is the fence every engine/provenance refactor used to
// run by hand (build the parent's exspan, diff -dump-prov across apps and
// modes): the Figure 3 fixpoint of every built-in program, in every
// provenance mode, serial and sharded, hashed against digests recorded in
// testdata/dumpprov.golden. A digest covers each node's visible tuples of
// every predicate (sorted; value mode adds each tuple's encoded BDD payload,
// centralized mode the prov/ruleExec rows relayed to the server as tuples)
// followed by the prov and ruleExec partitions as -dump-prov prints them.
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
	for _, app := range []string{"mincost", "pathvector", "packetforward", "chord", "policy"} {
		for _, modeName := range []string{"none", "reference", "value", "centralized"} {
			for _, shards := range []int{1, 2} {
				key := fmt.Sprintf("%s %s shards=%d", app, modeName, shards)
				got := dumpProvDigest(t, app, modeName, shards)
				fmt.Fprintf(&computed, "%s %s\n", key, got)
				if want[key] != got {
					t.Errorf("%s: digest %s, golden %q", key, got, want[key])
					bad = true
				}
			}
		}
	}
	if bad {
		t.Logf("computed digests:\n%s", computed.String())
	}
}

// dumpProvDigest runs one matrix cell the way main does (same program
// loader, same per-app EDB at the CLI's default seed) with the shard count
// pinned verbatim — core honors explicit counts, so shards=2 really shards
// on a one-core host.
func dumpProvDigest(t *testing.T, app, modeName string, shards int) string {
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
	c, err := core.NewCluster(core.Config{Topo: topo, Prog: prog, Mode: mode, Shards: shards,
		Base: base, NoLinkTuples: spec.noLinks})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunToFixpoint(); err != nil {
		t.Fatal(err)
	}
	h := sha1.New()
	for i, host := range c.Hosts {
		fmt.Fprintf(h, "node %d\n", i)
		preds := []string{"prov", "ruleExec"} // centralized mode's relayed rows
		for _, p := range host.Engine.Prog.Preds() {
			preds = append(preds, p.Name)
		}
		for _, pred := range preds {
			for _, tu := range host.Engine.Tuples(pred) {
				io.WriteString(h, tu.String()+"\n")
				if ref, ok := host.Engine.PayloadOf(tu); ok {
					fmt.Fprintf(h, "payload %x\n", host.Engine.Mgr.Encode(ref, nil))
				}
			}
		}
		for _, row := range host.Engine.Store.ProvRows() {
			io.WriteString(h, "prov     "+row+"\n")
		}
		for _, row := range host.Engine.Store.RuleExecRows() {
			io.WriteString(h, "ruleExec "+row+"\n")
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
