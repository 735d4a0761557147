package core_test

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/apps"
	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/drivertest"
	"repro/internal/engine"
	"repro/internal/provquery"
	"repro/internal/topology"
	"repro/internal/types"
)

// TestQueryGolden pins the query protocol's observable behaviour against
// digests recorded in testdata/query.golden: MINCOST on the seed-1
// transit-stub topology, every UDF × every traversal strategy × cache
// off/on, 300 seeded queries each. A line records a digest of the 300 result
// payloads in issue order, the bytes the queries put on the wire and the
// virtual time at which the last one returned; afterwards no host may hold
// a pending protocol record (DFS-THRESHOLD stops early and MOONWALK prunes,
// so both must still release everything they started).
//
// Every cell runs again on the Scheduler, whose query messages travel
// between engine runs in (source, emission order) instead of on virtual
// time. Where its payloads are the simulator's, its query bytes must be too
// with the cache off (with it on, arrival order decides which results are
// warm). A cell whose payloads differ is pinned on a line of its own, keyed
// `sched`. That happens where a result depends on the order of a tuple's
// derivations, which is the order they arrived in, and that order differs
// between the drivers: a POLYNOMIAL sum lists them in it (each such answer
// must still equal the simulator's up to that order), a BDD query numbers
// base tuples as it first reaches them, DFS-THRESHOLD stops after the
// derivations it happened to try first, and a MOONWALK sampler draws in it.
//
// A refactor of provquery or of a payload encoding must leave the file
// untouched. A change that is *meant* to move a payload, a message size or
// a hop replaces the affected lines with the ones this test logs.
func TestQueryGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/query.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		i := strings.IndexByte(line, ':')
		want[line[:i]] = strings.TrimSpace(line[i+1:])
	}

	udfs := []struct {
		name string
		mk   func(name func(algebra.Base) bdd.Var) provquery.UDF
	}{
		{"polynomial", func(func(algebra.Base) bdd.Var) provquery.UDF { return provquery.Polynomial{} }},
		{"bdd", provquery.BDD},
		{"derivations", func(func(algebra.Base) bdd.Var) provquery.UDF { return provquery.Derivations() }},
		{"nodeset", func(func(algebra.Base) bdd.Var) provquery.UDF { return provquery.NodeSet() }},
		{"derivability", func(func(algebra.Base) bdd.Var) provquery.UDF { return provquery.Derivability(nil) }},
	}
	strategies := []provquery.Strategy{provquery.BFS, provquery.DFS, provquery.DFSThreshold, provquery.Moonwalk}

	var computed strings.Builder
	bad := false
	check := func(key, got string) {
		fmt.Fprintf(&computed, "%s: %s\n", key, got)
		if want[key] != got {
			t.Errorf("%s: got %s, golden %q", key, got, want[key])
			bad = true
		}
	}
	for _, u := range udfs {
		for _, strat := range strategies {
			for _, cache := range []bool{false, true} {
				key := fmt.Sprintf("%s %s cache=%v", u.name, strat, cache)
				cfg := core.Config{Strategy: strat, Threshold: 2, CacheOn: cache}
				sim := drivertest.Simnet(t, transitStubMinCost(cfg))
				simResults, wire := queryGoldenCell(t, sim, u.mk, func() int64 { return sim.Net.TotalBytes })
				payloads := digest(simResults)
				check(key, fmt.Sprintf("payloads=%s wire=%d vtime=%d", payloads, wire, int64(sim.Sim.Now())))

				sched := drivertest.Scheduler(t, transitStubMinCost(cfg), 0)
				results, schedWire := queryGoldenCell(t, sched, u.mk, func() int64 { return sched.TotalBytes })
				if got := digest(results); got != payloads {
					check(key+" sched", fmt.Sprintf("payloads=%s wire=%d", got, schedWire))
				} else if !cache && schedWire != wire {
					t.Errorf("%s: Scheduler put %d query bytes on the wire, simulator %d", key, schedWire, wire)
				}
				if u.name == "polynomial" && strat != provquery.Moonwalk {
					samePolynomials(t, key, simResults, results)
				}
			}
		}
	}
	if bad {
		t.Logf("computed lines:\n%s", computed.String())
	}
}

// queryGoldenCell issues 300 seeded queries for bestPathCost tuples on d,
// whose processors it gives mkUDF's representation, each run to d's next
// fixpoint, and returns the results in issue order and the bytes wire
// counted meanwhile. No processor may hold a pending record afterwards.
func queryGoldenCell(t *testing.T, d driver.Driver, mkUDF func(func(algebra.Base) bdd.Var) provquery.UDF, wire func() int64) ([][]byte, int64) {
	t.Helper()
	engines := d.Engines()
	udf := mkUDF(driver.BaseVar(engines))
	for _, p := range d.Processors() {
		p.UDF = udf
	}
	var targets []types.Tuple
	for _, en := range engines {
		targets = append(targets, en.Tuples("bestPathCost")...)
	}
	rng := rand.New(rand.NewSource(7))
	bytes0 := wire()
	results := make([][]byte, 300)
	for q := range results {
		target := targets[rng.Intn(len(targets))]
		answered := false
		d.Query(types.NodeID(rng.Intn(len(engines))), target.VID(), target.Loc(), func(p []byte) {
			results[q], answered = p, true
		})
		if err := d.Fixpoint(); err != nil {
			t.Fatal(err)
		}
		if !answered {
			t.Fatalf("query %d for %s never returned", q, target)
		}
	}
	for i, p := range d.Processors() {
		if n := p.Pending(); n != 0 {
			t.Errorf("node %d: %d pending protocol records after all queries returned", i, n)
		}
	}
	return results, wire() - bytes0
}

// digest hashes query results in order, each prefixed by its length.
func digest(results [][]byte) string {
	h := sha1.New()
	for _, p := range results {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// samePolynomials requires two runs' POLYNOMIAL answers to be equal query by
// query up to the order of sums and products (canon).
func samePolynomials(t *testing.T, key string, want, got [][]byte) {
	t.Helper()
	for q := range want {
		w, err := provquery.DecodePolynomial(want[q])
		if err != nil {
			t.Fatal(err)
		}
		g, err := provquery.DecodePolynomial(got[q])
		if err != nil {
			t.Fatal(err)
		}
		if canon(w) != canon(g) {
			t.Errorf("%s: query %d: Scheduler answered %s, simulator %s", key, q, g, w)
			return
		}
	}
}

// convergedTransitStub runs reference-mode MINCOST to fixpoint on the seed-1
// transit-stub topology (the standing benchmark's query network) under the
// given query-processor settings.
func convergedTransitStub(t *testing.T, cfg core.Config) *core.Cluster {
	t.Helper()
	return drivertest.Simnet(t, transitStubMinCost(cfg)).Cluster
}

// transitStubMinCost is cfg with reference-mode MINCOST on the seed-1
// transit-stub topology.
func transitStubMinCost(cfg core.Config) core.Config {
	cfg.Topo = topology.TransitStub(topology.DefaultTransitStub(1), rand.New(rand.NewSource(1)))
	cfg.Prog, cfg.Mode = apps.MinCost(), engine.ProvReference
	return cfg
}

// TestQueryAllocsPerVertex fences the cost model of the query path: a hop
// validates and copies the bytes it forwards and keeps one frame plus one
// kid slice per in-flight vertex, so a warm BFS POLYNOMIAL query allocates a
// small constant per vertex it visits (≈ 6: frame, kids, result, and per
// base tuple its label; per remote hop a map slot) — not a decoded
// expression tree per hop, which cost ≈ 66.
func TestQueryAllocsPerVertex(t *testing.T) {
	c := convergedTransitStub(t, core.Config{})
	targets := c.TuplesOf("bestPathCost")
	rng := rand.New(rand.NewSource(5))
	type query struct {
		from types.NodeID
		ref  core.TupleRef
	}
	queries := make([]query, 100)
	for i := range queries {
		queries[i] = query{types.NodeID(rng.Intn(c.Topo.N)), targets[rng.Intn(len(targets))]}
	}
	results := make([][]byte, len(queries))
	run := func() {
		for i, q := range queries {
			c.Query(q.from, q.ref.VID, q.ref.Loc, func(p []byte) { results[i] = p })
			c.Sim.Run()
		}
	}
	run() // warm: message pools filled, maps and the event heap sized

	vertices := 0 // each tuple vertex answers with one sum node, each rule vertex with one product
	var count func(e *algebra.Expr)
	count = func(e *algebra.Expr) {
		if e.Op == algebra.OpSum || e.Op == algebra.OpProd {
			vertices++
		}
		for _, k := range e.Kids {
			count(k)
		}
	}
	for _, p := range results {
		e, err := provquery.DecodePolynomial(p)
		if err != nil {
			t.Fatal(err)
		}
		count(e)
	}
	allocs := testing.AllocsPerRun(5, run)
	per := allocs / float64(vertices)
	t.Logf("%.1f allocations per vertex visited (%d vertices, %d queries)", per, vertices, len(queries))
	if per > 8 {
		t.Errorf("%.0f allocations for %d vertices visited: %.1f per vertex, want ≤ 8", allocs, vertices, per)
	}
}
