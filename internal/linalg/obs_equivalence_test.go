package linalg

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestEquivalenceWithObsEnabled: the always-on timers in the products,
// SymEig, TopEigenInPlace and SVD, read mid-update as /metrics and /timings
// read them, must not perturb bit-for-bit results, so each returns while
// every instrument is read in a loop exactly what it returns alone.
func TestEquivalenceWithObsEnabled(t *testing.T) {
	// same runs f alone and then beside a reader of every instrument (the
	// loop of testutil.Scrape, which imports linalg), and holds every matrix
	// of the second run to the first.
	same := func(t *testing.T, names []string, f func() []*Matrix) {
		t.Helper()
		want := f()
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					obs.Take()
					obs.TimingsTable()
				}
			}
		}()
		got := f()
		close(done)
		wg.Wait()
		for i := range got {
			exactEqual(t, names[i], got[i], want[i])
		}
	}
	row := func(v []float64) *Matrix { return NewMatrixFrom(1, len(v), v) }

	t.Run("MatMul", func(t *testing.T) {
		a := randEquivMatrix(211, 211, 97)
		b := randEquivMatrix(97, 97, 133)
		at := randEquivMatrix(310, 211, 133)
		v := randEquivMatrix(77, 1, 97).Row(0)
		vr := randEquivMatrix(78, 1, 211).Row(0)
		same(t, []string{"Mul", "TMul", "MulT", "MulVec", "TMulVec"}, func() []*Matrix {
			return []*Matrix{a.Mul(b), a.TMul(at), a.MulT(a), row(a.MulVec(v)), row(a.TMulVec(vr))}
		})
	})
	t.Run("SymEig", func(t *testing.T) {
		spd := spdMatrix(150, 150)
		same(t, []string{"SymEig values", "SymEig vectors"}, func() []*Matrix {
			eig, err := SymEig(spd)
			if err != nil {
				t.Fatal(err)
			}
			return []*Matrix{row(eig.Values), eig.Vectors}
		})
	})
	t.Run("TopEigenInPlace", func(t *testing.T) {
		a := spdMatrix(150, 151)
		same(t, []string{"TopEigenInPlace values", "TopEigenInPlace vectors"}, func() []*Matrix {
			vals, vecs, err := TopEigenInPlace(a.Clone(), 38)
			if err != nil {
				t.Fatal(err)
			}
			return []*Matrix{row(vals), vecs}
		})
	})
	t.Run("SVD", func(t *testing.T) {
		x := randEquivMatrix(9060, 90, 60)
		for _, x := range []*Matrix{x, x.T()} {
			same(t, []string{"SVD S", "SVD U"}, func() []*Matrix {
				svd, err := SVD(x)
				if err != nil {
					t.Fatal(err)
				}
				return []*Matrix{row(svd.S), svd.U}
			})
		}
	})
}
