package types

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// TestValueSizeFence pins the compact representation: Value must stay a
// fixed tagged word of at most 24 bytes (it is currently 16) and must be
// pointer-free, so slices of values cost the garbage collector nothing to
// scan. If this fails, the representation rework regressed — see the
// package comment and ISSUE 3.
func TestValueSizeFence(t *testing.T) {
	if sz := unsafe.Sizeof(Value{}); sz > 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want ≤ 24", sz)
	}
	// Compile-time-ish pointer-freedom check: a map with Value keys is only
	// legal because Value is comparable; verify equality semantics too.
	m := map[Value]int{Str("x"): 1, Int(3): 2}
	if m[Str("x")] != 1 || m[Int(3)] != 2 {
		t.Fatal("Value does not behave as a map key")
	}
}

// TestInternCanonicalHandles verifies the central interning invariant:
// equal payloads yield identical handles, so == on Value coincides with
// deep equality.
func TestInternCanonicalHandles(t *testing.T) {
	if Str("hello") != Str("hello") {
		t.Error("equal strings interned to different handles")
	}
	if Str("hello") == Str("world") {
		t.Error("distinct strings share a handle")
	}
	id := HashString("q")
	if IDVal(id) != IDVal(id) {
		t.Error("equal IDs interned to different handles")
	}
	l1 := List(Int(1), Str("a"), List(Node(2)))
	l2 := List(Int(1), Str("a"), List(Node(2)))
	if l1 != l2 {
		t.Error("equal lists interned to different handles")
	}
	if List(Int(1)) == List(Int(2)) {
		t.Error("distinct lists share a handle")
	}
	p1 := Prov([]byte{9, 9})
	p2 := Prov([]byte{9, 9})
	if p1 != p2 {
		t.Error("equal payloads interned to different handles")
	}
}

// TestInternConcurrency hammers the intern tables from many goroutines with
// overlapping payloads and checks that every goroutine resolves the same
// payload to the same handle and content. Run with -race to exercise the
// lock-free read path.
func TestInternConcurrency(t *testing.T) {
	const goroutines = 16
	const perG = 400
	results := make([][]Value, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]Value, 0, perG*3)
			for i := 0; i < perG; i++ {
				// Payloads overlap heavily across goroutines (i % 50) so
				// most interns race on the same dedup entries.
				s := fmt.Sprintf("conc-shared-%d", i%50)
				out = append(out, Str(s))
				out = append(out, IDVal(HashString(s)))
				out = append(out, List(Int(int64(i%25)), Str(s)))
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if len(results[g]) != len(results[0]) {
			t.Fatalf("goroutine %d produced %d values, want %d", g, len(results[g]), len(results[0]))
		}
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d value %d diverged: %s vs %s",
					g, i, results[g][i], results[0][i])
			}
		}
	}
	// Cross-goroutine content checks: accessors must see fully-written
	// entries.
	for i := 0; i < 50; i++ {
		s := fmt.Sprintf("conc-shared-%d", i)
		if got := Str(s).AsStr(); got != s {
			t.Fatalf("interned string content corrupted: %q != %q", got, s)
		}
	}
}

// TestInternConstructionAllocFree pins the steady-state cost of value
// construction on the firing path: re-creating an already-interned string,
// ID or list value allocates nothing.
func TestInternConstructionAllocFree(t *testing.T) {
	id := HashString("warm")
	elems := []Value{Int(1), Str("warm")}
	_ = Str("warm")
	_ = IDVal(id)
	_ = List(elems...)
	var sink Value
	allocs := testing.AllocsPerRun(200, func() {
		sink = Str("warm")
		sink = IDVal(id)
	})
	if allocs != 0 {
		t.Errorf("re-interning str/id allocated %.2f objects per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		sink = List(elems...)
	})
	if allocs != 0 {
		t.Errorf("re-interning a list allocated %.2f objects per run, want 0", allocs)
	}
	_ = sink
}

// TestEncodePreservedBitForBit spells out the wire-format pin with explicit
// expected bytes (docs/wire-format.md): the interning layer must never leak
// into the encoding.
func TestEncodePreservedBitForBit(t *testing.T) {
	cases := []struct {
		v    Value
		want []byte
	}{
		{Nil(), []byte{0}},
		{Bool(true), []byte{1, 1}},
		{Int(5), []byte{2, 0, 0, 0, 0, 0, 0, 0, 5}},
		{Str("ab"), []byte{3, 2, 'a', 'b'}},
		{Node(3), []byte{4, 0, 0, 0, 3}},
		{List(Int(1), Str("x")), []byte{6, 2, 2, 0, 0, 0, 0, 0, 0, 0, 1, 3, 1, 'x'}},
		{Prov([]byte{7, 8}), []byte{7, 2, 7, 8}},
	}
	for _, c := range cases {
		got := c.v.Encode(nil)
		if string(got) != string(c.want) {
			t.Errorf("Encode(%s) = %v, want %v", c.v, got, c.want)
		}
		if c.v.WireSize() != len(c.want) {
			t.Errorf("WireSize(%s) = %d, want %d", c.v, c.v.WireSize(), len(c.want))
		}
	}
	id := HashString("z")
	idEnc := IDVal(id).Encode(nil)
	if len(idEnc) != 21 || idEnc[0] != 5 || string(idEnc[1:]) != string(id[:]) {
		t.Errorf("ID encoding changed: %v", idEnc)
	}
}

// TestAppendKeyIdentity checks that the process-local handle key agrees with
// value equality in both directions.
func TestAppendKeyIdentity(t *testing.T) {
	vals := []Value{
		Nil(), Bool(false), Bool(true), Int(0), Int(-1), Int(1 << 40),
		Node(0), Node(7), Str(""), Str("a"), Str("b"),
		IDVal(HashString("a")), IDVal(HashString("b")),
		List(), List(Int(1)), List(Int(1), Int(2)),
	}
	for i, a := range vals {
		for j, b := range vals {
			ka := string(a.AppendKey(nil))
			kb := string(b.AppendKey(nil))
			if (ka == kb) != (i == j) {
				t.Errorf("AppendKey identity broken for %s vs %s", a, b)
			}
		}
	}
}
