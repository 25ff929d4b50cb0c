package core

// arena is a per-query bump allocator over one backing buffer. take carves
// zero-length slices with fixed capacity out of the buffer; reset makes the
// whole buffer available again. When a query outgrows the buffer, a larger
// one is allocated for subsequent takes while already-taken slices keep
// aliasing the old buffer (still referenced by their results, reclaimed by
// the GC with them) — so after a warm-up query the steady state allocates
// nothing (pinned by TestSteadyStateQueryAllocs).
type arena[T any] struct {
	buf []T
	off int
}

// reset makes the whole buffer available for the next query. Slices taken
// earlier must no longer be in use by their owner.
func (a *arena[T]) reset() { a.off = 0 }

// take reserves capacity for n elements and returns a zero-length slice
// over it. Appends to the returned slice beyond n may reallocate; callers
// take exactly what they fill.
func (a *arena[T]) take(n int) []T {
	if a.off+n > len(a.buf) {
		size := 2 * len(a.buf)
		if size < n {
			size = n
		}
		if size < 256 {
			size = 256
		}
		a.buf = make([]T, size)
		a.off = 0
	}
	s := a.buf[a.off : a.off : a.off+n]
	a.off += n
	return s
}
