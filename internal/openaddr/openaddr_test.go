package openaddr

import (
	"maps"
	"slices"
	"testing"
)

// keys probes for the position probe. Positions are their own keys, 1-63,
// and hash to eight homes: the end of each eighth of the table, the last
// slot included, so probe chains are long, run into each other and wrap.
type keys struct{ probe uint32 }

func (keys) Hash(p uint32) uint64 { return uint64(p%8)<<61 - 1 }
func (k keys) Is(p uint32) bool   { return p == k.probe }

// TestHomeIsTopBits: a probe starts at a hash's top bits, so keys whose
// hashes share them share a home at every table size and sit on consecutive
// slots from it in the order they came, through every growth.
func TestHomeIsTopBits(t *testing.T) {
	var x Table[uint32]
	var want []uint32
	for p := uint32(1); p < 160; p += 8 { // one home: the end of the first eighth
		k := keys{p}
		slot, _, _ := Find(&x, k, k.Hash(p))
		Insert(&x, k, k.Hash(p), p, slot)
		want = append(want, p)
	}
	at := len(x.slots)/8 - 1
	if len(x.slots) != 32 || !slices.Equal(x.slots[at:at+len(want)], want) {
		t.Fatalf("%d slots hold %v, want %v from slot %d", len(x.slots), x.slots, want, at)
	}
}

// FuzzTable replays inserts, removals, finds and remove-while-walking sweeps
// (DeleteFunc, what the engine's sweep does) on a Table and on a Go map, and
// after every operation compares every key's lookup, the count, the walk
// and Check. An operation is two bytes: the first byte's low two bits pick
// the operation, the second's low six bits the key; a sweep drops every key
// k with k%m == r, m and r taken from the first byte's upper bits.
func FuzzTable(f *testing.F) {
	op := func(kind, arg, key byte) []byte { return []byte{arg<<2 | kind, key} }
	var fill, drain, sweeps []byte
	for k := range byte(63) {
		fill = append(fill, op(0, 0, k+1)...)
		drain = append(drain, op(1, 0, 63-k)...)
	}
	for m := byte(2); m < 9; m++ {
		sweeps = append(sweeps, op(3, m<<3|m/2, 0)...)
	}
	f.Add(slices.Concat(fill, drain))
	f.Add(slices.Concat(fill, sweeps, fill))
	f.Add(slices.Concat(op(0, 0, 8), op(0, 0, 16), op(0, 0, 24), op(1, 0, 8), op(2, 0, 24), op(0, 0, 8), op(3, 1<<3, 0)))
	f.Add(slices.Concat(fill[:40], op(3, 2<<3|1, 0), fill[40:100], op(1, 0, 3), op(3, 3<<3, 0), drain))

	f.Fuzz(func(t *testing.T, data []byte) {
		var x Table[uint32]
		naive := map[uint32]bool{}
		for i := 0; i+1 < len(data); i += 2 {
			kind, arg, key := data[i]&3, data[i]>>2, uint32(data[i+1]&63)
			k := keys{key}
			h := k.Hash(key)
			switch slot, p, ok := Find(&x, k, h); {
			case kind == 3:
				m, r := uint32(arg>>3)+1, uint32(arg&7)
				seen := map[uint32]bool{}
				DeleteFunc(&x, keys{}, func(p uint32) bool {
					if seen[p] && p%m == r {
						t.Fatalf("op %d: the sweep offered %d, which it dropped, again", i/2, p)
					}
					seen[p] = true
					return p%m == r
				})
				if !maps.Equal(seen, naive) {
					t.Fatalf("op %d: the sweep offered %v, the table held %v", i/2, seen, naive)
				}
				maps.DeleteFunc(naive, func(p uint32, _ bool) bool { return p%m == r })
			case key == 0:
			case kind == 0 && !ok:
				Insert(&x, k, h, key, slot)
				naive[key] = true
			case kind == 1 && ok:
				Remove(&x, k, slot)
				delete(naive, key)
			case ok != naive[key], ok && p != key:
				t.Fatalf("op %d: Find(%d) = %d %v", i/2, key, p, ok)
			}
			for p := uint32(1); p < 64; p++ {
				if _, got, ok := Find(&x, keys{p}, keys{}.Hash(p)); ok != naive[p] || ok && got != p {
					t.Fatalf("op %d: Find(%d) = %d %v, want %v", i/2, p, got, ok, naive[p])
				}
			}
			walked := map[uint32]bool{}
			for p := range x.All {
				walked[p] = true
			}
			if x.Len() != len(naive) || !maps.Equal(walked, naive) {
				t.Fatalf("op %d: the table counts %d and walks %v, want %v", i/2, x.Len(), walked, naive)
			}
			if err := Check(&x, func(p uint32) keys { return keys{p} }, func(uint32) string { return "" }); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		}
	})
}
