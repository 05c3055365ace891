package arena

import "testing"

// TestSlabRuns: runs come back zeroed with capacity exactly their length,
// growth leaves earlier runs intact, Reset poisons what the slab holds and
// rewinds it, and a nil slab allocates each run on its own.
func TestSlabRuns(t *testing.T) {
	var s Slab[int]
	a := s.Take(3)
	for i := range a {
		a[i] = i + 1
	}
	b := s.Take(minSlab) // does not fit: a new backing slice
	if len(a) != 3 || cap(a) != 3 || len(b) != minSlab || cap(b) != minSlab {
		t.Fatalf("runs of len/cap %d/%d and %d/%d", len(a), cap(a), len(b), cap(b))
	}
	if a[0] != 1 || a[2] != 3 {
		t.Fatalf("growth overwrote an earlier run: %v", a)
	}
	if got := s.Bytes(); got != 2*minSlab*8 {
		t.Fatalf("slab keeps %d B, want %d", got, 2*minSlab*8)
	}
	for i := range b {
		b[i] = 7
	}
	s.Reset(-1)
	for i, v := range b {
		if v != -1 {
			t.Fatalf("element %d of a reset run reads %d, want the poison", i, v)
		}
	}
	c := s.Take(4)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("element %d of a recycled run reads %d, want 0", i, v)
		}
	}
	if &c[0] != &b[0] {
		t.Fatal("the run after a reset did not reuse the slab")
	}

	var none *Slab[int]
	if d := none.Take(5); len(d) != 5 || cap(d) != 5 {
		t.Fatalf("a nil slab's run has len/cap %d/%d", len(d), cap(d))
	}
	if got := testing.AllocsPerRun(10, func() { s.Take(4); s.Reset(0) }); got != 0 {
		t.Errorf("taking from a grown slab allocates %.0f objects", got)
	}
}
