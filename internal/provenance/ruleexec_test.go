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
// share their eight-byte map key, so half of the rows an operation sequence
// creates live in the spill map.
var execRIDs = func() []types.ID {
	ids := make([]types.ID, 32)
	for i := 0; i < len(ids); i += 2 {
		ids[i], ids[i+1] = sharedPrefix(fmt.Sprint("exec", i))
	}
	return ids
}()

// execRules is indexed by two bits, so one of the three rules appears twice.
var execRules = [...]string{"r0", "r1", "r2", "r0"}

// execInputs returns the input VIDs of RID pool entry i at the given arity.
func execInputs(i, arity int) []types.ID {
	vids := make([]types.ID, arity)
	for j := range vids {
		vids[j] = tid(fmt.Sprint("in", (i*5+j)%11))
	}
	return vids
}

// execOp decodes one two-byte operation: the first byte's low bit deletes,
// bits 1-2 pick the rule and bits 3-4 the arity; the second byte picks the
// RID.
func execOp(a, b byte) (del bool, rid types.ID, rule string, inputs []types.ID) {
	i := int(b) % len(execRIDs)
	return a&1 == 1, execRIDs[i], execRules[a>>1&3], execInputs(i, int(a>>3&3))
}

// renderExec renders a row as RuleExecRows does for a store with no tuples.
func renderExec(node types.NodeID, e RuleExecEntry) string {
	vids := make([]string, len(e.VIDList))
	for i, v := range e.VIDList {
		vids[i] = v.Short()
	}
	return fmt.Sprintf("%s | %s | %s | (%s)", node, e.RID.Short(), e.Rule, strings.Join(vids, ","))
}

func sameExec(a, b RuleExecEntry) bool {
	return a.RID == b.RID && a.Rule == b.Rule && a.Count == b.Count && slices.Equal(a.VIDList, b.VIDList)
}

// FuzzRuleExecTable replays a sequence of ruleExec adds and deletes — over
// several rules, arities 0-3 and RIDs that share map keys — on a Store and
// on a naive map of rows, and after every operation compares every read
// path: RuleExecOf on the whole RID pool, NumRuleExec, the ForEachRuleExec
// set and RuleExecRows. A delete that empties a row moves its table's last
// row into the hole, so a wrong repoint of the moved row's prefix or spill
// entry shows up as a lost, stale or misattributed row.
func FuzzRuleExecTable(f *testing.F) {
	add := func(rule, arity, rid int) []byte { return []byte{byte(rule<<1 | arity<<3), byte(rid)} }
	del := func(rid int) []byte { return []byte{1, byte(rid)} }
	seq := func(ops ...[]byte) []byte { return slices.Concat(ops...) }
	// The moved row lives in the spill map: 0 (prefix) and 1 (spill) share
	// a key; deleting 2 moves 1 into its row.
	f.Add(seq(add(1, 2, 0), add(1, 2, 2), add(1, 2, 1), del(2), del(0), del(1)))
	// The moved row holds the prefix slot while the removed one is in spill.
	f.Add(seq(add(0, 1, 4), add(0, 1, 5), add(0, 1, 6), del(5), del(4), del(6)))
	// Counts above one, arity 0, and rows across several tables.
	f.Add(seq(add(2, 0, 8), add(2, 0, 8), add(0, 3, 9), add(2, 0, 10), del(8), del(10), add(0, 3, 11), del(8), del(9)))
	// Remove every row from the front, so each delete moves the last row.
	ops := [][]byte{}
	for i := range 12 {
		ops = append(ops, add(1, 2, i))
	}
	for i := range 12 {
		ops = append(ops, del(i))
	}
	f.Add(seq(ops...))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore(3)
		naive := map[types.ID]RuleExecEntry{}
		for i := 0; i+1 < len(data); i += 2 {
			isDel, rid, rule, inputs := execOp(data[i], data[i+1])
			e, had := naive[rid]
			if isDel {
				if got := s.DelRuleExec(rid); got != had {
					t.Fatalf("op %d: DelRuleExec(%s) = %v, want %v", i/2, rid.Short(), got, had)
				}
				if e.Count--; had && e.Count > 0 {
					naive[rid] = e
				} else {
					delete(naive, rid)
				}
			} else {
				s.AddRuleExec(rid, rule, inputs)
				if !had {
					e = RuleExecEntry{RID: rid, Rule: rule, VIDList: inputs}
				}
				e.Count++
				naive[rid] = e
			}
			checkRuleExec(t, i/2, s, naive)
		}
	})
}

// checkRuleExec compares every ruleExec read path of s with the naive rows.
func checkRuleExec(t *testing.T, op int, s *Store, naive map[types.ID]RuleExecEntry) {
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
	var want []string
	for _, e := range naive {
		want = append(want, renderExec(s.Node, e))
	}
	sort.Strings(want)
	if got := s.RuleExecRows(); !slices.Equal(got, want) {
		t.Fatalf("op %d: RuleExecRows =\n%s\nwant\n%s", op, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRuleExecChurnAllocFree: once a store has held 1,000 ruleExec rows,
// adding and deleting them again allocates nothing — a removed row's place
// is reused by the table's last row, so no dead row stays pinned and a
// re-added row needs no new memory.
func TestRuleExecChurnAllocFree(t *testing.T) {
	const rows = 1000
	s := NewStore(0)
	inputs := [][]types.ID{execInputs(0, 1), execInputs(1, 2), execInputs(2, 2)}
	rids := make([]types.ID, rows)
	for i := range rids {
		rids[i] = tid(fmt.Sprint("churn", i))
	}
	cycle := func() {
		for i, rid := range rids {
			s.AddRuleExec(rid, execRules[i%3], inputs[i%3])
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
