package apps

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/topology"
	"repro/internal/types"
)

// cycle builds a plain n-node cycle (no random chords), so tests can
// compute expected successor graphs by hand.
func cycle(n int) *topology.Topology {
	t := &topology.Topology{N: n}
	for i := 0; i < n; i++ {
		t.Links = append(t.Links, topology.Link{
			U: types.NodeID(i), V: types.NodeID((i + 1) % n),
			Class: topology.ClassStub, Cost: 1,
		})
	}
	return t
}

func runChord(t *testing.T, topo *topology.Topology, lookups []types.Tuple) *engine.Scheduler {
	t.Helper()
	prog, err := engine.Compile(Chord())
	if err != nil {
		t.Fatalf("compile chord: %v", err)
	}
	s := engine.NewScheduler(prog, engine.ProvReference, topo.N, 1, 0)
	for n, tuples := range ChordBase(topo) {
		for _, tup := range tuples {
			s.InsertBase(n, tup)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, lk := range lookups {
		s.InsertBase(lk.Loc(), lk)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// ringDist mirrors the f_ringdist builtin.
func ringDist(a, b int64) int64 {
	d := (b - a) % ChordSpace
	if d < 0 {
		d += ChordSpace
	}
	if d == 0 {
		d = ChordSpace
	}
	return d
}

// between mirrors the f_between builtin.
func between(k, a, b int64) bool {
	switch {
	case a == b:
		return true
	case a < b:
		return a < k && k <= b
	default:
		return k > a || k <= b
	}
}

// succOf computes the expected successor election: the physical neighbor
// closest clockwise on the identifier ring.
func succOf(topo *topology.Topology, n types.NodeID) types.NodeID {
	best, bestD := types.NodeID(-1), int64(-1)
	for _, nb := range topo.Adjacency()[n] {
		d := ringDist(ChordID(n), ChordID(nb.Node))
		if bestD < 0 || d < bestD {
			best, bestD = nb.Node, d
		}
	}
	return best
}

// ownerOf follows the successor chain the way rules l1/l2 do and returns
// the node at which lookupRes materializes.
func ownerOf(topo *topology.Topology, origin types.NodeID, key int64) types.NodeID {
	n := origin
	for {
		s := succOf(topo, n)
		if between(key, ChordID(n), ChordID(s)) {
			return n
		}
		n = s
	}
}

func TestChordSuccessorElection(t *testing.T) {
	topo := cycle(8)
	s := runChord(t, topo, nil)
	for n := 0; n < topo.N; n++ {
		succs := s.Node(n).Tuples("succ")
		if len(succs) != 1 {
			t.Fatalf("node %d: %d succ tuples, want 1", n, len(succs))
		}
		want := succOf(topo, types.NodeID(n))
		if got := succs[0].Args[1].AsNode(); got != want {
			t.Errorf("node %d: succ = %v, want %v", n, got, want)
		}
		if id := succs[0].Args[2].AsInt(); id != ChordID(want) {
			t.Errorf("node %d: succ id = %d, want %d", n, id, ChordID(want))
		}
		// The predecessor election is the same arg-min with the distance
		// reversed; on a cycle both neighbors are candidates.
		if preds := s.Node(n).Tuples("pred"); len(preds) != 1 {
			t.Fatalf("node %d: %d pred tuples, want 1", n, len(preds))
		}
	}
	var fingers int
	for n := 0; n < topo.N; n++ {
		fingers += len(s.Node(n).Tuples("finger"))
	}
	if fingers == 0 {
		t.Fatal("no finger tuples derived")
	}
}

func TestChordLookupResolves(t *testing.T) {
	topo := cycle(8)
	lookups := []types.Tuple{
		LookupTuple(0, 12345, 0),
		LookupTuple(3, ChordID(6), 3), // exact hit on a node identifier
		LookupTuple(5, ChordSpace-1, 5),
	}
	s := runChord(t, topo, lookups)
	for _, lk := range lookups {
		key := lk.Args[1].AsInt()
		owner := ownerOf(topo, lk.Loc(), key)
		found := false
		for _, res := range s.Node(int(owner)).Tuples("lookupRes") {
			if res.Args[1].AsInt() == key && res.Args[2].AsNode() == lk.Args[2].AsNode() {
				found = true
				if got, want := res.Args[3].AsNode(), succOf(topo, owner); got != want {
					t.Errorf("key %d: resolved successor %v, want %v", key, got, want)
				}
			}
		}
		if !found {
			t.Errorf("key %d: no lookupRes at expected owner %v", key, owner)
		}
	}
}

// TestChordLookupRetraction deletes a lookup's base tuple and expects the
// whole forwarding chain and its result to unwind — lookups are base
// state precisely so DRed can retract them.
func TestChordLookupRetraction(t *testing.T) {
	topo := cycle(8)
	lk := LookupTuple(0, 54321, 0)
	s := runChord(t, topo, []types.Tuple{lk})
	total := func(pred string) int {
		c := 0
		for n := 0; n < topo.N; n++ {
			c += len(s.Node(n).Tuples(pred))
		}
		return c
	}
	if total("lookupRes") == 0 {
		t.Fatal("lookup did not resolve")
	}
	s.DeleteBase(lk.Loc(), lk)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := total("lookup"); n != 0 {
		t.Errorf("%d lookup tuples survive retraction", n)
	}
	if n := total("lookupRes"); n != 0 {
		t.Errorf("%d lookupRes tuples survive retraction", n)
	}
}

func runPolicy(t *testing.T, topo *topology.Topology) *engine.Scheduler {
	t.Helper()
	prog, err := engine.Compile(Policy())
	if err != nil {
		t.Fatalf("compile policy: %v", err)
	}
	s := engine.NewScheduler(prog, engine.ProvReference, topo.N, 1, 0)
	for _, l := range topo.Links {
		s.InsertBase(l.U, LinkTuple(l.U, l.V, l.Cost))
		s.InsertBase(l.V, LinkTuple(l.V, l.U, l.Cost))
	}
	for n, tuples := range PolicyTuples(topo) {
		for _, tup := range tuples {
			s.InsertBase(n, tup)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// chargedCost recomputes a route's cost from its path under the pp1/pp2
// charging scheme: link costs along the path, plus policy penalties
// policy(p1,p0) ... policy(p[m-1],p[m-2]) for the extension steps and
// policy(p[m-1],p[m]) for the pp1 base hop. Reports ok=false when any
// required policy atom or link is missing.
func chargedCost(topo *topology.Topology, path []types.NodeID) (int64, bool) {
	linkCost := map[[2]types.NodeID]int64{}
	for _, l := range topo.Links {
		linkCost[[2]types.NodeID{l.U, l.V}] = l.Cost
		linkCost[[2]types.NodeID{l.V, l.U}] = l.Cost
	}
	var c int64
	for i := 0; i+1 < len(path); i++ {
		lc, ok := linkCost[[2]types.NodeID{path[i], path[i+1]}]
		if !ok {
			return 0, false
		}
		c += lc
	}
	m := len(path) - 1
	for i := 1; i < m; i++ {
		w, ok := ExportPolicy(path[i], path[i-1])
		if !ok {
			return 0, false
		}
		c += w
	}
	w, ok := ExportPolicy(path[m-1], path[m])
	if !ok {
		return 0, false
	}
	return c + w, true
}

func TestPolicyRoutesRespectPolicy(t *testing.T) {
	topo := cycle(10)
	s := runPolicy(t, topo)
	filtered := 0
	for _, l := range topo.Links {
		if _, ok := ExportPolicy(l.U, l.V); !ok {
			filtered++
		}
		if _, ok := ExportPolicy(l.V, l.U); !ok {
			filtered++
		}
	}
	if filtered == 0 {
		t.Fatal("vacuous: no adjacency filtered on this topology")
	}
	routes := 0
	for n := 0; n < topo.N; n++ {
		for _, r := range s.Node(n).Tuples("bestRoute") {
			routes++
			var path []types.NodeID
			seen := map[types.NodeID]bool{}
			for _, v := range r.Args[3].AsList() {
				p := v.AsNode()
				if seen[p] {
					t.Fatalf("route %v has a loop", r)
				}
				seen[p] = true
				path = append(path, p)
			}
			if path[0] != types.NodeID(n) || path[len(path)-1] != r.Args[1].AsNode() {
				t.Fatalf("route %v: path endpoints do not match tuple", r)
			}
			c, ok := chargedCost(topo, path)
			if !ok {
				t.Fatalf("route %v uses a filtered or missing adjacency", r)
			}
			if c != r.Args[2].AsInt() {
				t.Fatalf("route %v: recomputed cost %d", r, c)
			}
		}
		// nextHop agrees with the selected route's second path element.
		hops := map[[2]types.NodeID]types.NodeID{}
		for _, h := range s.Node(n).Tuples("nextHop") {
			hops[[2]types.NodeID{h.Args[0].AsNode(), h.Args[1].AsNode()}] = h.Args[2].AsNode()
		}
		for _, r := range s.Node(n).Tuples("bestRoute") {
			want := r.Args[3].AsList()[1].AsNode()
			if got := hops[[2]types.NodeID{r.Args[0].AsNode(), r.Args[1].AsNode()}]; got != want {
				t.Fatalf("nextHop %v, want %v for %v", got, want, r)
			}
		}
		// routeSet (the Adj-RIB analogue) is never empty where it exists.
		for _, rs := range s.Node(n).Tuples("routeSet") {
			if len(rs.Args[2].AsList()) == 0 {
				t.Fatalf("empty routeSet %v", rs)
			}
		}
	}
	if routes == 0 {
		t.Fatal("no bestRoute derived anywhere")
	}
}

// TestWorkloadProgramsArePlanned pins that both protocols carry >= 3-atom
// rules whose join order is a choice: the explain dump must show [planned]
// join pipelines for the Chord candidate and lookup rules and the policy
// extension rule.
func TestWorkloadProgramsArePlanned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prog  *ndlog.Program
		rules []string
	}{
		{"chord", Chord(), []string{"rule c1", "rule c5", "rule l1", "rule l2"}},
		{"policy", Policy(), []string{"rule pp2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := engine.Compile(tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			s := engine.NewScheduler(prog, engine.ProvNone, 1, 1, 0)
			var sb strings.Builder
			s.Node(0).ExplainPlans(&sb)
			out := sb.String()
			if !strings.Contains(out, "[planned]") {
				t.Fatalf("no [planned] pipeline in explain output:\n%s", out)
			}
			for _, r := range tc.rules {
				i := strings.Index(out, r)
				if i < 0 {
					t.Fatalf("rule %q missing from explain output", r)
				}
				seg := out[i:]
				if j := strings.Index(seg[1:], "rule "); j >= 0 {
					seg = seg[:j+1]
				}
				if !strings.Contains(seg, "[planned]") {
					t.Errorf("%s: not planned:\n%s", r, seg)
				}
			}
		})
	}
}
