// Package openaddr is the one hash table a node and its provenance store
// find their state through: vertices by VID, ruleExec rows by RID, tuples by
// table and args, aggregate groups by rule and group-by values.
//
// A Table holds positions (a handle, a row number or a pointer; zero marks an
// empty slot) and neither keys nor hashes: a use reads the key at a position
// through its Keys, so it compares its own full key and a shared hash costs a
// longer probe, never a wrong position. A probe starts at the top bits of the
// key's 64-bit hash and walks on linearly; a removal shifts the rest of its
// probe chain back, leaving no tombstone. The table doubles before it is
// three quarters full and never shrinks, so a warm table allocates nothing.
package openaddr

import (
	"fmt"
	"math/bits"
)

// Table is an open-addressed hash table of positions; the zero Table is empty.
type Table[P comparable] struct {
	slots []P
	n     int
}

// Keys reads a table's keys for one probe: Hash hashes the key at p, and Is
// reports whether p holds the probed key.
type Keys[P any] interface {
	Hash(p P) uint64
	Is(p P) bool
}

// Len reports the number of positions the table holds.
func (x *Table[P]) Len() int { return x.n }

// All yields every position the table holds, in slot order.
func (x *Table[P]) All(yield func(p P) bool) {
	var none P
	for _, p := range x.slots {
		if p != none && !yield(p) {
			return
		}
	}
}

// Set replaces the position at slot by p, which holds the same key.
func (x *Table[P]) Set(slot int, p P) { x.slots[slot] = p }

// home is the slot a probe for hash h starts at.
//
//exspan:hotpath
func (x *Table[P]) home(h uint64) int {
	return int(h >> (64 - bits.TrailingZeros(uint(len(x.slots)))))
}

// Find returns the slot and position of the key k probes for, whose hash is
// h, or ok false and the empty slot that ends the key's probe chain.
//
//exspan:hotpath
func Find[P comparable, K Keys[P]](x *Table[P], k K, h uint64) (slot int, p P, ok bool) {
	var none P
	if len(x.slots) == 0 {
		return 0, none, false
	}
	for slot = x.home(h); ; slot = (slot + 1) & (len(x.slots) - 1) {
		if p = x.slots[slot]; p == none || k.Is(p) {
			return slot, p, p != none
		}
	}
}

// Insert adds p, whose key of hash h the table does not hold, at slot: the
// empty slot where Find ended, unless the table grows first. Growth moves
// each position to the end of its key's probe chain: a Find that never
// matches, since k probes for the one key the table does not hold.
//
//exspan:hotpath
func Insert[P comparable, K Keys[P]](x *Table[P], k K, h uint64, p P, slot int) {
	var none P
	if old := x.slots; 4*(x.n+1) > 3*len(old) {
		//exspanlint:alloc-ok growth: the table doubles, amortized over the positions it admits
		x.slots = make([]P, max(8, 2*len(old)))
		for _, q := range old {
			if q != none {
				at, _, _ := Find(x, k, k.Hash(q))
				x.slots[at] = q
			}
		}
		slot, _, _ = Find(x, k, h)
	}
	x.slots[slot], x.n = p, x.n+1
}

// Remove empties slot i, moving back each later position of its probe chain
// whose home is not cyclically between the hole and the position itself.
//
//exspan:hotpath
func Remove[P comparable, K Keys[P]](x *Table[P], k K, i int) {
	var none P
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j] != none; j = (j + 1) & mask {
		if (j-x.home(k.Hash(x.slots[j])))&mask >= (j-i)&mask {
			x.slots[i], i = x.slots[j], j
		}
	}
	x.slots[i], x.n = none, x.n-1
}

// DeleteFunc removes, in one walk of the slots, every position drop reports
// true for. A removal can shift a position the walk passed back to a slot it
// has not, so drop must answer again as it did for a position it kept.
func DeleteFunc[P comparable, K Keys[P]](x *Table[P], k K, drop func(P) bool) {
	var none P
	for i := 0; i < len(x.slots); {
		if p := x.slots[i]; p != none && drop(p) {
			Remove(x, k, i) // a later position may move into slot i
		} else {
			i++
		}
	}
}

// Check reports the first position, named by name, that a probe for its own
// key (keyOf) does not find at its slot, then a count that is not the number
// of positions the slots hold.
func Check[P comparable, K Keys[P]](x *Table[P], keyOf func(P) K, name func(P) string) error {
	var none P
	held := 0
	for i, p := range x.slots {
		if p == none {
			continue
		}
		k := keyOf(p)
		if at, _, ok := Find(x, k, k.Hash(p)); !ok || at != i {
			return fmt.Errorf("%s sits at slot %d, but a probe for its key ends at slot %d", name(p), i, at)
		}
		held++
	}
	if held != x.n {
		return fmt.Errorf("the table counts %d positions and holds %d", x.n, held)
	}
	return nil
}
