package types

import (
	"testing"
	"unsafe"
)

// TestArenaGrowthSchedule pins the footprint rule: chunks double from
// arenaFirstChunk up to the cap and stay there, so a holder of a few values
// holds a few slots and a holder of many pays one allocation per cap slots.
func TestArenaGrowthSchedule(t *testing.T) {
	const max = 64
	a := NewArena[int](max)
	var caps []int
	last := 0
	for i := 0; i < 8+16+32+64+64+1; i++ {
		a.New()
		if c := cap(a.chunk); len(a.chunk) == 1 || c != last {
			caps = append(caps, c)
			last = c
		}
	}
	want := []int{8, 16, 32, 64, 64, 64}
	if len(caps) != len(want) {
		t.Fatalf("chunk sizes %v, want %v", caps, want)
	}
	for i := range want {
		if caps[i] != want[i] {
			t.Fatalf("chunk sizes %v, want %v", caps, want)
		}
	}

	// A multi-slot request larger than the next doubling (but within the
	// cap) skips ahead instead of going standalone.
	b := NewArena[int](max)
	if got := b.Make(20); len(got) != 20 || cap(got) != 20 || cap(b.chunk) != 32 {
		t.Fatalf("Make(20) on a fresh arena: len %d cap %d chunk %d, want 20 20 32", len(got), cap(got), cap(b.chunk))
	}
	// A cap that is not a power-of-two multiple of the first chunk is still
	// honoured.
	c := NewArena[int](20)
	for i := 0; i < 8+16+1; i++ {
		c.New()
	}
	if cap(c.chunk) != 20 {
		t.Fatalf("third chunk of a cap-20 arena holds %d slots, want 20", cap(c.chunk))
	}
}

// TestArenaCarvesZeroedAndDisjoint checks the three carve forms: slots come
// back zeroed and distinct, a carved slice cannot be appended into its
// neighbour, and Copy detaches from its source.
func TestArenaCarvesZeroedAndDisjoint(t *testing.T) {
	type rec struct {
		a, b int
		p    *int
	}
	a := NewArena[rec](16)
	seen := map[*rec]bool{}
	for i := 0; i < 100; i++ {
		r := a.New()
		if *r != (rec{}) {
			t.Fatalf("carve %d not zeroed: %+v", i, *r)
		}
		if seen[r] {
			t.Fatalf("carve %d handed out twice", i)
		}
		seen[r] = true
		r.a, r.b, r.p = i, -i, &r.a
	}

	s := NewArena[int](16)
	first := s.Cap1()
	second := s.Cap1()
	if len(first) != 0 || cap(first) != 1 || len(second) != 0 || cap(second) != 1 {
		t.Fatalf("Cap1: len/cap %d/%d and %d/%d, want 0/1 twice", len(first), cap(first), len(second), cap(second))
	}
	first = append(first, 1)
	second = append(second, 2)
	if &first[0] != &s.chunk[0] || &second[0] != &s.chunk[1] {
		t.Fatal("first append into a Cap1 slice left the arena")
	}
	first = append(first, 3) // past capacity: must reallocate, not overwrite second[0]
	if second[0] != 2 || s.chunk[1] != 2 {
		t.Fatalf("append past a carved slice's capacity overwrote its neighbour: %d", second[0])
	}
	if first[0] != 1 || first[1] != 3 {
		t.Fatalf("spilled slice = %v, want [1 3]", first)
	}

	src := []int{7, 8, 9}
	cp := s.Copy(src)
	src[0] = 0
	if len(cp) != 3 || cap(cp) != 3 || cp[0] != 7 || cp[2] != 9 {
		t.Fatalf("Copy = %v (cap %d), want [7 8 9] cap 3", cp, cap(cp))
	}
	if s.Copy(nil) != nil || s.Make(0) != nil {
		t.Fatal("empty carves must be nil")
	}
}

// TestArenaOversizeServedStandalone is the regression fence for the
// oversize-request bug the hand-rolled arenas had: a request larger than
// the chunk cap replaced the open chunk with an exactly-k one, stranding the
// old chunk's tail and leaving a full chunk behind, so the next small carve
// allocated again. It must cost one allocation and leave the small carves
// adjacent.
func TestArenaOversizeServedStandalone(t *testing.T) {
	const max = 16
	a := NewArena[int64](max)
	for i := 0; i < 8+16; i++ { // reach the cap-size chunk …
		a.New()
	}
	a.New() // … and open a fresh one
	prev := a.Make(2)
	adjacent := true
	allocs := testing.AllocsPerRun(5, func() {
		if big := a.Make(max + 1); len(big) != max+1 {
			t.Fatalf("oversize carve has %d slots, want %d", len(big), max+1)
		}
		next := a.Make(2)
		if unsafe.Pointer(&next[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), 2*unsafe.Sizeof(prev[0])) {
			adjacent = false
		}
		prev = next
	})
	if allocs != 1 {
		t.Fatalf("an oversize request between two small ones cost %v allocations, want 1", allocs)
	}
	if !adjacent {
		t.Fatal("small carves around an oversize request are not adjacent: the open chunk was replaced")
	}
}

// TestArenaSteadyStateAllocFree pins the amortised cost: once a cap-size
// chunk is open, carving allocates nothing until it is used up.
func TestArenaSteadyStateAllocFree(t *testing.T) {
	const max = 256
	a := NewArena[[3]int](max)
	a.New()
	for cap(a.chunk) < max || len(a.chunk) > 1 { // until a cap-size chunk has just been opened
		a.New()
	}
	const runs = 60 // (1 warm-up + 60) runs × 4 slots fit the open chunk
	allocs := testing.AllocsPerRun(runs, func() {
		a.New()
		_ = a.Cap1()
		_ = a.Make(2)
	})
	if allocs != 0 {
		t.Fatalf("carving from an open cap-size chunk allocated %v times per run", allocs)
	}
}
