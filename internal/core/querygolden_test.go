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
	"repro/internal/core"
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
		mk   func(c *core.Cluster) provquery.UDF
	}{
		{"polynomial", func(*core.Cluster) provquery.UDF { return provquery.Polynomial{} }},
		{"bdd", func(c *core.Cluster) provquery.UDF { return provquery.BDD(c.BaseVar) }},
		{"derivations", func(*core.Cluster) provquery.UDF { return provquery.Derivations() }},
		{"nodeset", func(*core.Cluster) provquery.UDF { return provquery.NodeSet() }},
		{"derivability", func(*core.Cluster) provquery.UDF { return provquery.Derivability(nil) }},
	}
	strategies := []provquery.Strategy{provquery.BFS, provquery.DFS, provquery.DFSThreshold, provquery.Moonwalk}

	var computed strings.Builder
	bad := false
	for _, u := range udfs {
		for _, strat := range strategies {
			for _, cache := range []bool{false, true} {
				key := fmt.Sprintf("%s %s cache=%v", u.name, strat, cache)
				got := queryGoldenCell(t, u.mk, strat, cache)
				fmt.Fprintf(&computed, "%s: %s\n", key, got)
				if want[key] != got {
					t.Errorf("%s: got %s, golden %q", key, got, want[key])
					bad = true
				}
			}
		}
	}
	if bad {
		t.Logf("computed lines:\n%s", computed.String())
	}
}

func queryGoldenCell(t *testing.T, mkUDF func(*core.Cluster) provquery.UDF, strat provquery.Strategy, cache bool) string {
	t.Helper()
	c := convergedTransitStub(t, core.Config{Strategy: strat, Threshold: 2, CacheOn: cache})
	udf := mkUDF(c)
	for _, h := range c.Hosts {
		h.Query.UDF = udf
	}
	targets := c.TuplesOf("bestPathCost")
	rng := rand.New(rand.NewSource(7))
	bytes0 := c.Net.TotalBytes
	h := sha1.New()
	for q := 0; q < 300; q++ {
		ref := targets[rng.Intn(len(targets))]
		answered := false
		c.Query(types.NodeID(rng.Intn(c.Topo.N)), ref.VID, ref.Loc, func(p []byte) {
			answered = true
			var n [4]byte
			binary.BigEndian.PutUint32(n[:], uint32(len(p)))
			h.Write(n[:])
			h.Write(p)
		})
		c.Sim.Run()
		if !answered {
			t.Fatalf("query %d for %s never returned", q, ref.Tuple)
		}
	}
	for i, host := range c.Hosts {
		if n := host.Query.Pending(); n != 0 {
			t.Errorf("host %d: %d pending protocol records after all queries returned", i, n)
		}
	}
	return fmt.Sprintf("payloads=%x wire=%d vtime=%d", h.Sum(nil), c.Net.TotalBytes-bytes0, int64(c.Sim.Now()))
}

// convergedTransitStub runs reference-mode MINCOST to fixpoint on the seed-1
// transit-stub topology (the standing benchmark's query network) under the
// given query-processor settings.
func convergedTransitStub(t *testing.T, cfg core.Config) *core.Cluster {
	t.Helper()
	cfg.Topo = topology.TransitStub(topology.DefaultTransitStub(1), rand.New(rand.NewSource(1)))
	cfg.Prog, cfg.Mode = apps.MinCost(), engine.ProvReference
	c := drivertest.Simnet(t, cfg).Cluster
	return c
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
