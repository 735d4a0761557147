package provenance

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/types"
)

// execRIDs is the RID pool of the ruleExec table tests: pairs (2i, 2i+1)
// share their first eight bytes, so they start their probe at one slot of
// the RID index and one of each pair sits further down the chain.
var execRIDs = func() []types.ID {
	ids := make([]types.ID, 32)
	for i := 0; i < len(ids); i += 2 {
		ids[i], ids[i+1] = sharedPrefix(fmt.Sprint("exec", i))
	}
	return ids
}()

// execRules are the labels of rule numbers 0-3; rule r has r inputs.
var execRules = [...]string{"r0", "r1", "r2", "r3"}

// execVerts returns the vertex pool of the ruleExec table tests: pairs
// (2i, 2i+1) share their first eight bytes, as execRIDs do.
func execVerts() []*Vertex {
	vs := make([]*Vertex, 12)
	for i := 0; i < len(vs); i += 2 {
		a, b := sharedPrefix(fmt.Sprint("in", i))
		vs[i], vs[i+1] = &Vertex{VID: a}, &Vertex{VID: b}
	}
	return vs
}

// execInputs returns the inputs of RID pool entry i under rule r: r
// vertices of the pool, starting at an offset.
func execInputs(vs []*Vertex, i, r, off int) []*Vertex {
	in := make([]*Vertex, r)
	for j := range in {
		in[j] = vs[(i*5+j+off)%len(vs)]
	}
	return in
}

func vidsOf(vs []*Vertex) []types.ID {
	vids := make([]types.ID, len(vs))
	for i, v := range vs {
		vids[i] = v.VID
	}
	return vids
}

func sameExec(a, b RuleExecEntry) bool {
	return a.RID == b.RID && a.Rule == b.Rule && a.Count == b.Count && slices.Equal(a.VIDList, b.VIDList)
}

// FuzzRuleExecTable replays a sequence of ruleExec adds and deletes — over
// rules of 0-3 inputs, input vertices named by handle, and RIDs and VIDs
// that share probe chains — on a Store and on a naive map of rows, and
// after every operation compares every read path: RuleExecOf on the whole
// RID pool, NumRuleExec, the ForEachRuleExec set and RuleExecRows. A third
// operation registers or forgets an input vertex (AddProv / DelProv), which
// must not change what the rows that name it read. All rules' rows share one
// table of one stride, the widest rule's, so narrower rows are zero-padded.
// A delete that empties a row moves the table's last row into the hole and
// shifts its probe chain back, so a wrong repoint of the moved row, a broken
// chain or a misread padding shows up as a lost, stale or misattributed row.
//
// An operation is two bytes: the first byte's bit 0 deletes, bit 6 toggles
// a vertex's registration instead, bits 1-2 pick the rule and bits 3-5 the
// input offset; the second byte picks the RID, or the vertex.
func FuzzRuleExecTable(f *testing.F) {
	add := func(rule, off, rid int) []byte { return []byte{byte(rule<<1 | off<<3), byte(rid)} }
	del := func(rid int) []byte { return []byte{1, byte(rid)} }
	toggle := func(v int) []byte { return []byte{1 << 6, byte(v)} }
	seq := func(ops ...[]byte) []byte { return slices.Concat(ops...) }
	// The moved row sits down the probe chain: 0 (home) and 1 share a
	// prefix; deleting 2 moves 1 into its row.
	f.Add(seq(add(2, 0, 0), add(2, 0, 2), add(2, 0, 1), del(2), del(0), del(1)))
	// The moved row holds the home slot while the removed one is down it.
	f.Add(seq(add(1, 0, 4), add(1, 0, 5), add(1, 0, 6), del(5), del(4), del(6)))
	// Counts above one, no inputs, and rows of several rules.
	f.Add(seq(add(0, 0, 8), add(0, 0, 8), add(3, 1, 9), add(0, 0, 10), del(8), del(10), add(3, 2, 11), del(8), del(9)))
	// Inputs registered, forgotten and registered again under their rows.
	f.Add(seq(toggle(0), toggle(1), add(2, 0, 0), add(3, 1, 1), toggle(0), toggle(1), toggle(0), del(0), toggle(0)))
	// Remove every row from the front, so each delete moves the last row.
	ops := [][]byte{}
	for i := range 12 {
		ops = append(ops, add(2, i%8, i))
	}
	for i := range 12 {
		ops = append(ops, del(i))
	}
	f.Add(seq(ops...))
	// A delete moves a row of another rule, with another count of inputs,
	// into the hole.
	f.Add(seq(add(1, 0, 12), add(3, 0, 13), add(2, 0, 14), del(12), del(13), add(1, 1, 12), del(14), del(12)))
	// Zero-input rows between padded ones, moved and moved into.
	f.Add(seq(add(3, 0, 16), add(0, 0, 17), add(2, 1, 18), add(0, 0, 19), add(1, 2, 20), del(17), del(16), del(20), del(19)))
	// Rows of every width, narrowest first, read, deleted and moved at the
	// widest rule's stride.
	f.Add(seq(add(0, 0, 22), add(1, 0, 23), add(1, 3, 24), add(2, 0, 25), add(3, 0, 26), del(23), add(2, 4, 27), del(22), del(26), del(24)))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore(3, &Rules{Labels: execRules[:], MaxInputs: 3})
		vs := execVerts()
		naive := map[types.ID]RuleExecEntry{}
		for i := 0; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			rid := execRIDs[int(b)%len(execRIDs)]
			e, had := naive[rid]
			switch {
			case a&(1<<6) != 0:
				v := vs[int(b)%len(vs)]
				if len(v.Rows) == 0 {
					s.AddProv(v, types.ZeroID, 0)
				} else {
					s.DelProv(v, types.ZeroID)
				}
			case a&1 == 1:
				if got := s.DelRuleExec(rid); got != had {
					t.Fatalf("op %d: DelRuleExec(%s) = %v, want %v", i/2, rid.Short(), got, had)
				}
				if e.Count--; had && e.Count > 0 {
					naive[rid] = e
				} else {
					delete(naive, rid)
				}
			default:
				r := int(a >> 1 & 3)
				inputs := execInputs(vs, int(b)%len(execRIDs), r, int(a>>3&7))
				s.AddRuleExec(rid, r, inputs)
				if !had {
					e = RuleExecEntry{RID: rid, Rule: execRules[r], VIDList: vidsOf(inputs)}
				}
				e.Count++
				naive[rid] = e
			}
			checkRuleExec(t, i/2, s, vs, naive)
		}
	})
}

// checkRuleExec compares every ruleExec and vertex read path of s with the
// naive rows and the pool's registrations.
func checkRuleExec(t *testing.T, op int, s *Store, vs []*Vertex, naive map[types.ID]RuleExecEntry) {
	t.Helper()
	for _, rid := range execRIDs {
		got, ok := s.RuleExecOf(rid)
		want, had := naive[rid]
		if ok != had || (had && !sameExec(got, want)) {
			t.Fatalf("op %d: RuleExecOf(%s) = %+v %v, want %+v %v", op, rid.Short(), got, ok, want, had)
		}
	}
	if s.NumRuleExec() != len(naive) {
		t.Fatalf("op %d: NumRuleExec = %d, want %d", op, s.NumRuleExec(), len(naive))
	}
	seen := map[types.ID]bool{}
	s.ForEachRuleExec(func(e RuleExecEntry) {
		if seen[e.RID] || !sameExec(e, naive[e.RID]) {
			t.Fatalf("op %d: ForEachRuleExec yields %+v (seen before: %v), want %+v", op, e, seen[e.RID], naive[e.RID])
		}
		seen[e.RID] = true
	})
	if len(seen) != len(naive) {
		t.Fatalf("op %d: ForEachRuleExec yields %d rows, want %d", op, len(seen), len(naive))
	}
	registered := 0
	for _, v := range vs {
		want := v
		if len(v.Rows) == 0 {
			want = nil
		} else {
			registered++
		}
		if got := s.Lookup(v.VID); got != want {
			t.Fatalf("op %d: Lookup(%s) = %p, want %p", op, v.VID.Short(), got, want)
		}
	}
	if s.NumProv() != registered {
		t.Fatalf("op %d: NumProv = %d, want %d", op, s.NumProv(), registered)
	}
	var want []string
	for _, e := range naive {
		vids := make([]string, len(e.VIDList))
		for i, vid := range e.VIDList {
			vids[i] = vid.Short()
			if v := s.Lookup(vid); v != nil {
				vids[i] = v.Tuple.String()
			}
		}
		want = append(want, fmt.Sprintf("%s | %s | %s | (%s)", s.Node, e.RID.Short(), e.Rule, strings.Join(vids, ",")))
	}
	sort.Strings(want)
	if got := s.RuleExecRows(); !slices.Equal(got, want) {
		t.Fatalf("op %d: RuleExecRows =\n%s\nwant\n%s", op, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRuleExecCountLimit: a row's count word counts at most 2^24 − 1
// executions below its rule number; one more add panics, naming the node and
// the rule, before the count carries into the rule number.
func TestRuleExecCountLimit(t *testing.T) {
	s := NewStore(3, &Rules{Labels: execRules[:], MaxInputs: 3})
	rid, inputs := execRIDs[0], execInputs(execVerts(), 0, 2, 0)
	s.AddRuleExec(rid, 2, inputs)
	s.cols[0] += countMask - 2 // as if added countMask-1 times
	s.AddRuleExec(rid, 2, inputs)
	if e, _ := s.RuleExecOf(rid); e.Count != countMask || e.Rule != "r2" {
		t.Fatalf("row at the limit reads %+v, want count %d of r2", e, countMask)
	}
	defer func() {
		const want = "provenance: node 3 counts the most executions of rule r2 a row can hold"
		if r := recover(); r != want {
			t.Fatalf("add past the limit: panic %v, want %q", r, want)
		}
		if e, _ := s.RuleExecOf(rid); e.Count != countMask || e.Rule != "r2" {
			t.Fatalf("row after the refused add reads %+v", e)
		}
	}()
	s.AddRuleExec(rid, 2, inputs)
}

// TestRuleExecChurnAllocFree: once a store has held 1,000 ruleExec rows,
// adding and deleting them again allocates nothing — a removed row's place
// is reused by the table's last row, so no dead row stays pinned and a
// re-added row needs no new memory, and the rows of the narrower rules sit
// at the widest one's stride.
func TestRuleExecChurnAllocFree(t *testing.T) {
	const rows = 1000
	s := NewStore(0, &Rules{Labels: execRules[:], MaxInputs: 3})
	vs := execVerts()
	inputs := [][]*Vertex{execInputs(vs, 0, 1, 0), execInputs(vs, 1, 2, 0), execInputs(vs, 2, 3, 0)}
	rids := make([]types.ID, rows)
	for i := range rids {
		rids[i] = tid(fmt.Sprint("churn", i))
	}
	cycle := func() {
		for i, rid := range rids {
			s.AddRuleExec(rid, 1+i%3, inputs[i%3])
		}
		for _, rid := range rids {
			s.DelRuleExec(rid)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a warm add/delete cycle over %d ruleExec rows allocates %.1f times, want 0", rows, allocs)
	}
	if s.NumRuleExec() != 0 {
		t.Fatalf("%d ruleExec rows survive the cycles", s.NumRuleExec())
	}
}
