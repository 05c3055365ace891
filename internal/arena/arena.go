// Package arena recycles the storage of short-lived trees. A Slab hands out
// runs of one backing slice; once nothing carved from it is read any more,
// Reset takes every run back at once, so the next tree is carved from the
// same memory instead of the heap.
package arena

import "unsafe"

// minSlab is the fewest elements a slab allocates when it grows.
const minSlab = 16

// Slab hands out runs of elements of one type. The zero Slab is empty and
// ready to use; a nil *Slab allocates every run exactly sized, for callers
// that keep what they carve.
type Slab[T any] struct{ buf []T }

// Take returns n zeroed elements whose capacity is exactly n, so appending
// to the run can never reach into the next one. When the backing slice is
// full, Take moves to a new one at least twice as large; runs carved from
// the old one stay valid, and the old slice is garbage once they are.
func (s *Slab[T]) Take(n int) []T {
	if s == nil {
		return make([]T, n)
	}
	used := len(s.buf)
	if used+n > cap(s.buf) {
		s.buf = make([]T, 0, max(2*cap(s.buf), n, minSlab))
		used = 0
	}
	s.buf = s.buf[:used+n]
	run := s.buf[used : used+n : used+n]
	clear(run)
	return run
}

// Reset takes back every run, overwriting each element with poison: a
// reader that outlives the reset reads poison rather than a later tree.
// The poison must hold no reference the slab should not keep alive.
func (s *Slab[T]) Reset(poison T) {
	for i := range s.buf {
		s.buf[i] = poison
	}
	s.buf = s.buf[:0]
}

// Bytes reports the size of the backing slice the slab keeps.
func (s *Slab[T]) Bytes() int {
	var zero T
	return cap(s.buf) * int(unsafe.Sizeof(zero))
}
