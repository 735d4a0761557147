// Package hotpath is the golden fixture for the hotpath analyzer: the
// //exspan:hotpath-annotated function seeds one violation per construct
// class, and coldFunc repeats them unannotated to pin that the analyzer
// only checks marked functions.
package hotpath

import "fmt"

var global []byte

type ring struct{ buf []byte }

func sink(any)            {}
func sinkPtr(*ring)       {}
func use(...any)          {}
func key(b []byte) string { return string(b) }

//exspan:hotpath
func hot(r *ring, b []byte, m map[string]int, s string) {
	ml := map[string]int{} // want "map literal allocates"
	sl := []int{1}         // want "slice literal allocates"
	mk := make([]byte, 8)  // want "make\(\) allocates"
	nw := new(ring)        // want "new\(\) allocates"
	rl := &ring{}          // want "&hotpath.ring\{\} allocates"

	k := string(b)  // want "string\(\[\]byte\) conversion copies"
	bb := []byte(s) // want "\[\]byte\(string\) conversion copies"

	_ = m[string(b)]    // free form: map lookup
	if string(b) == s { // free form: comparison
		return
	}

	fn := func() int { return len(b) } // want "closure captures b"
	_ = fmt.Sprint(s)                  // want "fmt.Sprint allocates"

	global = append(global, b...) // want "append to package-level global"
	_ = append(r.buf, b...)       // want "append result discarded"
	r.buf = append(r.buf, b...)   // receiver-rooted: the arena idiom
	b = append(b, 0)              // parameter-rooted: fine

	sink(len(b)) // want "int argument boxes into interface"
	sinkPtr(r)   // pointer-shaped: no boxing

	//exspanlint:alloc-ok fixture: demonstrates a justified suppression
	suppressed := make([]byte, 1)

	_, _, _, _, _, _, _, _, _ = ml, sl, mk, nw, rl, k, bb, fn, suppressed
}

// coldFunc is identical but unannotated: nothing here may be flagged.
func coldFunc(r *ring, b []byte, s string) {
	ml := map[string]int{}
	mk := make([]byte, 8)
	nw, rl := new(ring), &ring{}
	k := string(b)
	global = append(global, b...)
	use(ml, mk, nw, rl, k, fmt.Sprint(s))
}
