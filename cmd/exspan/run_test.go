package main

import (
	"strings"
	"testing"
)

// runCLI runs the CLI with args and returns what it printed.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("exspan %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// section returns the lines of out from the first that starts with prefix.
func section(t *testing.T, out, prefix string) string {
	t.Helper()
	i := strings.Index("\n"+out, "\n"+prefix)
	if i < 0 {
		t.Fatalf("no line starts with %q in:\n%s", prefix, out)
	}
	return out[i:]
}

// TestRunDriversAgree drives the CLI's one path on the Figure 3 MINCOST
// workload in reference mode: the simulator (which -dump-prov and -query
// select) and a UDP deployment (-deploy) print the same canonical state and
// answer the same query with the same provenance polynomial.
func TestRunDriversAgree(t *testing.T) {
	base := []string{"-app", "mincost", "-topo", "fig3", "-mode", "reference"}
	for _, flags := range [][]string{{"-dump-prov"}, {"-query", "bestPathCost(@a,c,5)"}} {
		prefix := "node 0\n"
		if flags[0] == "-query" {
			prefix = "provenance: "
		}
		sim := section(t, runCLI(t, append(base, flags...)...), prefix)
		udp := section(t, runCLI(t, append(append(base, "-deploy"), flags...)...), prefix)
		if sim != udp {
			t.Errorf("%s: the simulator printed\n%s\nthe deployment printed\n%s", flags[0], sim, udp)
		}
	}
}

// TestRunRejectsOutOfRange: a drop or duplication probability outside [0,1),
// a cluster of no nodes, or a query in a mode that keeps no distributed
// provenance (it would answer "provenance: 0") is refused before anything
// boots. At -loss 1.5 or
// -dup 1 the simulator never reaches a fixpoint, so no case here may reach a
// driver even if the check is gone: each also names a program file that does
// not exist, which fails the run right after the check with another error.
func TestRunRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-loss", []string{"-loss", "1.5"}},
		{"-loss", []string{"-loss", "1"}},
		{"-loss", []string{"-loss", "-0.5"}},
		{"-loss", []string{"-loss", "NaN"}},
		{"-dup", []string{"-dup", "1"}},
		{"-dup", []string{"-dup", "-0.1"}},
		{"-loss", []string{"-deploy", "-loss", "1"}},
		{"-dup", []string{"-deploy", "-dup", "2"}},
		{"-nodes", []string{"-topo", "ring", "-nodes", "0"}},
		{"-query", []string{"-mode", "value", "-query", "bestPathCost(@a,c,5)"}},
		{"-query", []string{"-mode", "none", "-query", "bestPathCost(@a,c,5)"}},
		{"-query", []string{"-mode", "centralized", "-query", "bestPathCost(@a,c,5)"}},
	} {
		args := append(c.args, "-app", "testdata/missing.ndlog")
		var out strings.Builder
		err := run(args, &out)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("exspan %s: error %v, want one naming %s", strings.Join(args, " "), err, c.flag)
		}
		if out.Len() != 0 {
			t.Errorf("exspan %s: printed %q before refusing", strings.Join(args, " "), out.String())
		}
	}
}
