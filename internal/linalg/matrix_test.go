package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randSPD(rng *rand.Rand, n int) *Matrix {
	a := randMatrix(rng, n+3, n)
	spd := a.TMul(a)
	spd.AddDiag(0.5)
	return spd
}

func TestMatrixBasicOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})

	got := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}

	if s := a.Add(b).At(1, 1); s != 12 {
		t.Errorf("Add(1,1) = %v, want 12", s)
	}
	if s := b.Sub(a).At(0, 0); s != 4 {
		t.Errorf("Sub(0,0) = %v, want 4", s)
	}
	if s := a.Scale(2).At(1, 0); s != 6 {
		t.Errorf("Scale(1,0) = %v, want 6", s)
	}
	if tt := a.T(); tt.At(0, 1) != 3 {
		t.Errorf("T(0,1) = %v, want 3", tt.At(0, 1))
	}
}

func TestMatrixMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v := []float64{1, 0, -1}
	got := a.MulVec(v)
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", got)
	}
	gt := a.TMulVec([]float64{1, 1})
	if gt[0] != 5 || gt[1] != 7 || gt[2] != 9 {
		t.Fatalf("TMulVec = %v, want [5 7 9]", gt)
	}
}

func TestTMulAndMulTMatchExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 7, 4)
	b := randMatrix(rng, 7, 5)
	if got, want := a.TMul(b), a.T().Mul(b); !got.Equal(want, 1e-10) {
		t.Errorf("TMul does not match explicit transpose")
	}
	c := randMatrix(rng, 6, 4)
	if got, want := a.MulT(c), a.Mul(c.T()); !got.Equal(want, 1e-10) {
		t.Errorf("MulT does not match explicit transpose")
	}
}

// TestProductsMatchNaive holds Mul, MulT, MulVec and TMulVec bit for bit to
// the textbook loops: every element sums its terms in index order from +0.
// Every 13th operand entry is an exact zero, so the zero-skip paths run.
func TestProductsMatchNaive(t *testing.T) {
	for _, s := range [][3]int{{5, 4, 3}, {64, 32, 80}, {211, 97, 133}} {
		r, inner, c := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", r, inner, c), func(t *testing.T) {
			a := randEquivMatrix(int64(r), r, inner)
			b := randEquivMatrix(int64(inner), inner, c)
			bt := randEquivMatrix(int64(c), c, inner)
			v := randEquivMatrix(77, 1, inner).Row(0)
			u := randEquivMatrix(78, 1, r).Row(0)

			mul, mulT := NewMatrix(r, c), NewMatrix(r, c)
			mulVec, tMulVec := make([]float64, r), make([]float64, inner)
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					for k := 0; k < inner; k++ {
						mul.Data[i*c+j] += a.At(i, k) * b.At(k, j)
						mulT.Data[i*c+j] += a.At(i, k) * bt.At(j, k)
					}
				}
				for k := 0; k < inner; k++ {
					mulVec[i] += a.At(i, k) * v[k]
				}
			}
			for j := 0; j < inner; j++ {
				for i := 0; i < r; i++ {
					tMulVec[j] += u[i] * a.At(i, j)
				}
			}

			exactEqual(t, "Mul", a.Mul(b), mul)
			exactEqual(t, "MulT", a.MulT(bt), mulT)
			exactEqual(t, "MulVec", NewMatrixFrom(1, r, a.MulVec(v)), NewMatrixFrom(1, r, mulVec))
			exactEqual(t, "TMulVec", NewMatrixFrom(1, inner, a.TMulVec(u)), NewMatrixFrom(1, inner, tMulVec))
		})
	}
}

func TestMatrixSlicing(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	r := a.SliceRows(1, 3)
	if r.Rows != 2 || r.At(0, 0) != 4 || r.At(1, 2) != 9 {
		t.Errorf("SliceRows wrong: %v", r)
	}
	c := a.SliceCols(1, 2)
	if c.Cols != 1 || c.At(2, 0) != 8 {
		t.Errorf("SliceCols wrong: %v", c)
	}
}

func TestCenterColumns(t *testing.T) {
	a := FromRows([][]float64{{1, 10}, {3, 30}})
	means := a.CenterColumns()
	if means[0] != 2 || means[1] != 20 {
		t.Fatalf("means = %v", means)
	}
	if a.At(0, 0) != -1 || a.At(1, 1) != 10 {
		t.Errorf("centered matrix wrong: %v", a)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		m := 2 + r.Intn(5)
		p := 2 + r.Intn(5)
		q := 2 + r.Intn(5)
		a := randMatrix(r, n, m)
		b := randMatrix(r, m, p)
		c := randMatrix(r, p, q)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		return left.Equal(right, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMatrix(r, 1+r.Intn(8), 1+r.Intn(8))
		return a.T().T().Equal(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{3, 4}
	if n := Norm(a); math.Abs(n-5) > 1e-12 {
		t.Errorf("Norm = %v, want 5", n)
	}
	if d := Dot(a, []float64{1, 2}); d != 11 {
		t.Errorf("Dot = %v, want 11", d)
	}
	if d := Dist([]float64{0, 0}, a); math.Abs(d-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := CosineDistance(a, a); math.Abs(d) > 1e-12 {
		t.Errorf("CosineDistance(a,a) = %v, want 0", d)
	}
	if d := CosineDistance([]float64{1, 0}, []float64{0, 1}); math.Abs(d-1) > 1e-12 {
		t.Errorf("CosineDistance(orth) = %v, want 1", d)
	}
	if d := CosineDistance([]float64{0, 0}, a); d != 1 {
		t.Errorf("CosineDistance(zero) = %v, want 1", d)
	}
	y := []float64{1, 1}
	Axpy(2, a, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy = %v", y)
	}
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %v", m)
	}
	if v := Variance([]float64{1, 3}); v != 1 {
		t.Errorf("Variance = %v", v)
	}
}

func TestNormOverflowSafe(t *testing.T) {
	v := []float64{1e200, 1e200}
	if n := Norm(v); math.IsInf(n, 0) {
		t.Errorf("Norm overflowed: %v", n)
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(10)
		a := randSPD(rng, n)
		ch, err := Cholesky(a)
		if err != nil {
			t.Fatalf("Cholesky: %v", err)
		}
		// L·Lᵀ must reconstruct A.
		if got := ch.L.MulT(ch.L); !got.Equal(a, 1e-8) {
			t.Fatalf("L·Lᵀ != A")
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		x := ch.SolveVec(b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-7 {
				t.Fatalf("solution mismatch at %d: %v vs %v", i, x[i], xTrue[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, -1}})
	if _, err := Cholesky(a); err == nil {
		t.Error("expected error for indefinite matrix")
	}
}

func TestCholeskyInvLower(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randSPD(rng, 6)
	ch, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := ch.InvLower()
	if got := inv.Mul(ch.L); !got.Equal(Identity(6), 1e-8) {
		t.Error("L⁻¹·L != I")
	}
}

func TestQRLeastSquaresRecoversPlantedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, p := 60, 5
	a := randMatrix(rng, n, p)
	coef := []float64{2, -1, 0.5, 3, -2.5}
	b := a.MulVec(coef)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range coef {
		if math.Abs(x[i]-coef[i]) > 1e-8 {
			t.Fatalf("coef %d = %v, want %v", i, x[i], coef[i])
		}
	}
}

func TestQRLeastSquaresMinimizesResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, p := 40, 4
	a := randMatrix(rng, n, p)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// The residual must be orthogonal to the column space: Aᵀ(Ax−b) = 0.
	res := a.MulVec(x)
	for i := range res {
		res[i] -= b[i]
	}
	g := a.TMulVec(res)
	for i, v := range g {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("gradient %d = %v, want 0", i, v)
		}
	}
}

func TestRidgeSolveRankDeficient(t *testing.T) {
	// Duplicate columns make plain least squares rank deficient.
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	b := []float64{2, 4, 6}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	pred := a.MulVec(x)
	for i := range pred {
		if math.Abs(pred[i]-b[i]) > 1e-3 {
			t.Fatalf("prediction %d = %v, want %v", i, pred[i], b[i])
		}
	}
}

func TestSymEigReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(12)
		a := randSPD(rng, n)
		es, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		// Eigenvalues sorted descending.
		for i := 1; i < n; i++ {
			if es.Values[i] > es.Values[i-1]+1e-10 {
				t.Fatalf("eigenvalues not sorted: %v", es.Values)
			}
		}
		// V diag(λ) Vᵀ == A.
		d := NewMatrix(n, n)
		for i, v := range es.Values {
			d.Set(i, i, v)
		}
		rec := es.Vectors.Mul(d).MulT(es.Vectors)
		if !rec.Equal(a, 1e-7*a.MaxAbs()+1e-9) {
			t.Fatalf("reconstruction failed for n=%d", n)
		}
		// Orthonormal eigenvectors.
		if got := es.Vectors.TMul(es.Vectors); !got.Equal(Identity(n), 1e-8) {
			t.Fatalf("eigenvectors not orthonormal")
		}
	}
}

func TestSymEigKnownValues(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	es, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(es.Values[0]-3) > 1e-12 || math.Abs(es.Values[1]-1) > 1e-12 {
		t.Errorf("eigenvalues = %v, want [3 1]", es.Values)
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := FromRows([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 3}})
	es, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 3, -2}
	for i, w := range want {
		if math.Abs(es.Values[i]-w) > 1e-12 {
			t.Errorf("value %d = %v, want %v", i, es.Values[i], w)
		}
	}
}

func TestTopEigen(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randSPD(rng, 9)
	vals, vecs, err := TopEigen(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vecs.Cols != 3 {
		t.Fatalf("TopEigen sizes wrong: %d vals, %d cols", len(vals), vecs.Cols)
	}
	// Each returned pair must satisfy A v = λ v.
	for j := 0; j < 3; j++ {
		v := vecs.Col(j)
		av := a.MulVec(v)
		for i := range av {
			if math.Abs(av[i]-vals[j]*v[i]) > 1e-7 {
				t.Fatalf("pair %d violates A·v = λ·v", j)
			}
		}
	}
}

func TestSVDReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := [][2]int{{8, 5}, {5, 8}, {6, 6}, {10, 2}, {2, 10}, {1, 4}, {4, 1}}
	for _, sh := range shapes {
		a := randMatrix(rng, sh[0], sh[1])
		f, err := SVD(a)
		if err != nil {
			t.Fatalf("SVD %v: %v", sh, err)
		}
		p := min(sh[0], sh[1])
		if len(f.S) < p {
			t.Fatalf("SVD %v: only %d singular values", sh, len(f.S))
		}
		// Singular values nonnegative and sorted.
		for i := 0; i < p; i++ {
			if f.S[i] < 0 {
				t.Fatalf("negative singular value %v", f.S[i])
			}
			if i > 0 && f.S[i] > f.S[i-1]+1e-10 {
				t.Fatalf("singular values not sorted: %v", f.S[:p])
			}
		}
		// Each left singular vector is an eigenvector of A·Aᵀ with
		// eigenvalue s_j², which is what A = U·diag(S)·Vᵀ says of U alone.
		if f.U.Rows != sh[0] || f.U.Cols != p {
			t.Fatalf("SVD %v: U is %dx%d", sh, f.U.Rows, f.U.Cols)
		}
		for j := 0; j < p; j++ {
			u := f.U.Col(j)
			aatu := a.MulVec(a.TMulVec(u))
			for i := range u {
				if math.Abs(aatu[i]-f.S[j]*f.S[j]*u[i]) > 1e-8 {
					t.Fatalf("SVD %v: A·Aᵀ·u_%d ≠ s²·u_%d at %d", sh, j, j, i)
				}
			}
		}
	}
}

// TestSVDOrthonormalFactors: U is orthonormal on a tall input and on a wide
// one, whose U is formed as the right factor of its transpose.
func TestSVDOrthonormalFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, a := range []*Matrix{randMatrix(rng, 9, 5), randMatrix(rng, 5, 9)} {
		f, err := SVD(a)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.U.TMul(f.U); !got.Equal(Identity(f.U.Cols), 1e-8) {
			t.Errorf("%dx%d: UᵀU != I", a.Rows, a.Cols)
		}
	}
}

func TestSVDSingularValuesMatchEigen(t *testing.T) {
	// Singular values of A are sqrt of eigenvalues of AᵀA.
	rng := rand.New(rand.NewSource(11))
	a := randMatrix(rng, 7, 4)
	f, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	es, err := SymEig(a.TMul(a))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want := math.Sqrt(math.Max(es.Values[i], 0))
		if math.Abs(f.S[i]-want) > 1e-8 {
			t.Errorf("singular value %d = %v, want %v", i, f.S[i], want)
		}
	}
}
