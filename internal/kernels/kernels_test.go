package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func randMat(seed int64, r, c int) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := linalg.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestGaussianProperties(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 0, 3}
	if k := Gaussian(a, a, 1.5); math.Abs(k-1) > 1e-12 {
		t.Errorf("k(a,a) = %v, want 1", k)
	}
	kab := Gaussian(a, b, 1.5)
	kba := Gaussian(b, a, 1.5)
	if kab != kba {
		t.Error("kernel must be symmetric")
	}
	if kab <= 0 || kab >= 1 {
		t.Errorf("k(a,b) = %v, want in (0,1)", kab)
	}
	// Known value: ‖a−b‖² = 1+4+0 = 5.
	if want := math.Exp(-5 / 1.5); math.Abs(kab-want) > 1e-12 {
		t.Errorf("k(a,b) = %v, want %v", kab, want)
	}
	// Larger tau → larger kernel value (less decay).
	if Gaussian(a, b, 10) <= Gaussian(a, b, 1) {
		t.Error("kernel should grow with tau")
	}
}

func TestGaussianPanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for tau <= 0")
		}
	}()
	Gaussian([]float64{1}, []float64{2}, 0)
}

func TestScaleHeuristic(t *testing.T) {
	x := randMat(1, 50, 4)
	tau := ScaleHeuristic(x, 0.1)
	if tau <= 0 {
		t.Errorf("tau = %v, want positive", tau)
	}
	// Doubling the fraction doubles tau.
	if tau2 := ScaleHeuristic(x, 0.2); math.Abs(tau2-2*tau) > 1e-9 {
		t.Errorf("tau not linear in fraction: %v vs %v", tau, tau2)
	}
	// Degenerate data (all identical norms) still yields positive tau.
	same := linalg.FromRows([][]float64{{1, 0}, {0, 1}, {-1, 0}, {0, -1}})
	if tau := ScaleHeuristic(same, 0.1); tau <= 0 {
		t.Errorf("degenerate tau = %v", tau)
	}
}

func TestMatrixSymmetricUnitDiagonal(t *testing.T) {
	x := randMat(2, 20, 3)
	k := Matrix(x, 2.0)
	for i := 0; i < k.Rows; i++ {
		if k.At(i, i) != 1 {
			t.Fatalf("diagonal not 1 at %d", i)
		}
		for j := 0; j < k.Cols; j++ {
			if k.At(i, j) != k.At(j, i) {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
			if k.At(i, j) < 0 || k.At(i, j) > 1 {
				t.Fatalf("out of range at (%d,%d): %v", i, j, k.At(i, j))
			}
		}
	}
}

func TestMatrixPositiveSemiDefinite(t *testing.T) {
	x := randMat(3, 15, 3)
	k := Matrix(x, 1.0)
	es, err := linalg.SymEig(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range es.Values {
		if v < -1e-9 {
			t.Fatalf("negative eigenvalue %v: Gaussian kernel must be PSD", v)
		}
	}
}

func TestCrossVectorMatchesMatrix(t *testing.T) {
	x := randMat(4, 10, 3)
	k := Matrix(x, 1.3)
	for i := 0; i < x.Rows; i++ {
		kv := CrossVectorColsInto(make([]float64, x.Rows), x.T(), x.Row(i), 1.3)
		for j := range kv {
			if kv[j] != Gaussian(x.Row(i), x.Row(j), 1.3) || math.Abs(kv[j]-k.At(i, j)) > 1e-12 {
				t.Fatalf("cross vector mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCenterZeroesMeans(t *testing.T) {
	x := randMat(5, 12, 3)
	c := Matrix(x, 1.0)
	rowMeans, grand := Center(c)
	if len(rowMeans) != c.Rows || math.IsNaN(grand) {
		t.Fatal("centering metadata broken")
	}
	// Every row (and column) of the centered matrix sums to ~0.
	for i := 0; i < c.Rows; i++ {
		if s := linalg.Mean(c.Row(i)); math.Abs(s) > 1e-10 {
			t.Fatalf("row %d mean = %v, want 0", i, s)
		}
	}
}

func TestCenterCrossConsistent(t *testing.T) {
	// Centering the kernel vector of a TRAINING point must reproduce the
	// corresponding row of the centered kernel matrix — this is what makes
	// out-of-sample projection consistent with training.
	x := randMat(6, 9, 4)
	c := Matrix(x, 2.0)
	rowMeans, grand := Center(c)
	for i := 0; i < x.Rows; i++ {
		kv := CrossVectorColsInto(make([]float64, x.Rows), x.T(), x.Row(i), 2.0)
		cv := CenterCross(kv, rowMeans, grand)
		for j := range cv {
			if math.Abs(cv[j]-c.At(i, j)) > 1e-10 {
				t.Fatalf("centered cross vector mismatch at (%d,%d): %v vs %v", i, j, cv[j], c.At(i, j))
			}
		}
	}
}
