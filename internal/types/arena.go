package types

// Arena carves long-lived values of T out of shared chunks, so that what the
// evaluator keeps per stored tuple — relation entries, first derivation and
// provenance rows, emitted argument lists — costs one allocation per chunk
// instead of one each. Chunks double from arenaFirstChunk slots up to the
// arena's cap: a holder of a few values holds a few slots, a holder of
// thousands pays one allocation per cap slots.
//
// Carved memory is zeroed and never handed out twice (callers that recycle
// keep their own free list); a chunk is collected once nothing carved from
// it is reachable. Carved slices have capacity equal to their length, so an
// append past it reallocates instead of running into the neighbouring carve.
// Like Pool, an Arena belongs to one goroutine at a time.
type Arena[T any] struct {
	chunk []T // the open chunk: len is the carved prefix, cap the chunk size
	max   int // chunk size cap
}

const arenaFirstChunk = 8

// NewArena returns an empty arena whose chunks grow up to maxChunk slots.
func NewArena[T any](maxChunk int) Arena[T] { return Arena[T]{max: maxChunk} }

// Make carves a zeroed slice of k values (nil for k == 0). A request larger
// than the chunk cap is served by an allocation of its own and leaves the
// open chunk in place for the carves that follow.
//
//exspan:hotpath
func (a *Arena[T]) Make(k int) []T {
	if k == 0 {
		return nil
	}
	n := len(a.chunk)
	if n+k > cap(a.chunk) {
		if k > a.max {
			//exspanlint:alloc-ok oversize request: no chunk may hold it, and replacing the open chunk would strand its tail
			return make([]T, k)
		}
		size := max(2*cap(a.chunk), arenaFirstChunk)
		for size < k {
			size *= 2
		}
		//exspanlint:alloc-ok chunk refill: amortized over the carves it serves, 1/cap in steady state
		a.chunk = make([]T, 0, min(size, a.max))
		n = 0
	}
	a.chunk = a.chunk[:n+k]
	return a.chunk[n : n+k : n+k]
}

// New carves one zeroed value.
//
//exspan:hotpath
func (a *Arena[T]) New() *T { return &a.Make(1)[0] }

// Cap1 carves an empty slice of capacity one: the first element of a list
// that usually holds exactly one. Longer lists spill to append growth.
//
//exspan:hotpath
func (a *Arena[T]) Cap1() []T { return a.Make(1)[:0] }

// Copy carves a copy of src (nil for an empty src).
//
//exspan:hotpath
func (a *Arena[T]) Copy(src []T) []T {
	dst := a.Make(len(src))
	copy(dst, src)
	return dst
}
