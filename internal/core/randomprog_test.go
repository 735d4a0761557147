package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/topology"
	"repro/internal/types"
)

// randomProgram generates a small random localized NDlog program: a base
// relation base(@X,V), a chain of derived relations with joins against the
// base, arithmetic assignments, comparisons, and occasionally a MIN
// aggregate or a remote head (shipping the derivation to the neighbor
// named by the base tuple's value).
func randomProgram(rng *rand.Rand, depth int) *ndlog.Program {
	src := "r0 d0(@X,N,V) :- base(@X,N,V).\n"
	for i := 1; i <= depth; i++ {
		prev := fmt.Sprintf("d%d", i-1)
		cur := fmt.Sprintf("d%d", i)
		switch rng.Intn(4) {
		case 0: // projection + arithmetic
			src += fmt.Sprintf("r%d %s(@X,N,W) :- %s(@X,N,V), W = V + %d.\n", i, cur, prev, rng.Intn(3)+1)
		case 1: // join against base with a comparison
			src += fmt.Sprintf("r%d %s(@X,N,W) :- %s(@X,N,V), base(@X,N2,V2), W = V + V2, V2 >= %d.\n",
				i, cur, prev, rng.Intn(2))
		case 2: // remote head: ship to the neighbor in attribute N
			src += fmt.Sprintf("r%d %s(@N,X,V) :- %s(@X,N,V).\n", i, cur, prev)
			// Re-normalize the schema for the next layer.
			i++
			if i > depth {
				break
			}
			src += fmt.Sprintf("r%d d%d(@X,N,V) :- %s(@X,N,V).\n", i, i, cur)
			cur = fmt.Sprintf("d%d", i)
		case 3: // MIN aggregate
			src += fmt.Sprintf("r%d %s(@X,N,min<V>) :- %s(@X,N,V).\n", i, cur, prev)
		}
	}
	return ndlog.MustParse(src)
}

// TestRandomProgramsRewriteEquivalence extends the rewrite-vs-native
// equivalence from the two paper applications to randomly generated
// programs: for each, the Algorithm-1 rewritten program executed plainly
// must reach the canonical state of native reference-mode execution of the
// original — the same derived relations, prov rows and ruleExec rows.
func TestRandomProgramsRewriteEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	topo := topology.Ring(5, rng)
	for trial := 0; trial < 25; trial++ {
		depth := 1 + rng.Intn(4)
		prog := randomProgram(rng, depth)
		if err := ndlog.Validate(prog); err != nil {
			t.Fatalf("trial %d: generated invalid program: %v\n%s", trial, err, prog)
		}
		// The programs speak base, not link: the topology only carries
		// their messages.
		native, rewritten := rewritePair(t, core.Config{Topo: topo, Prog: prog, NoLinkTuples: true})

		// Shared base facts: per node, a handful of (neighbor, value) rows.
		seed := rand.New(rand.NewSource(int64(trial)))
		var facts []types.Tuple
		for n := 0; n < topo.N; n++ {
			for k := 0; k < 2+seed.Intn(3); k++ {
				facts = append(facts, types.NewTuple("base",
					types.Node(types.NodeID(n)),
					types.Node(types.NodeID(seed.Intn(topo.N))),
					types.Int(int64(seed.Intn(5)))))
			}
		}
		for _, c := range []*core.Cluster{native, rewritten} {
			c := c
			c.Sim.At(0, func() {
				for _, f := range facts {
					c.Hosts[f.Loc()].Engine.InsertBase(f)
				}
			})
			if _, err := c.RunToFixpoint(); err != nil {
				t.Fatalf("trial %d: %v\nprogram:\n%s", trial, err, prog)
			}
		}
		if d := rewriteDiff(native, rewritten); d != "" {
			t.Fatalf("trial %d: native vs rewritten (- native, + rewritten):\n%s\nprogram:\n%s", trial, d, prog)
		}
	}
}
