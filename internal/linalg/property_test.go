package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQRSolveProperty: for random well-conditioned systems, the least
// squares solution of a consistent system reproduces the planted solution.
func TestQRSolveProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(20)
		p := 2 + rng.Intn(6)
		a := randMatrix(rng, n, p)
		xTrue := make([]float64, p)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64() * 5
		}
		b := a.MulVec(xTrue)
		x, err := LeastSquares(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCholeskySPDProperty: Cholesky succeeds on SPD matrices and its
// solutions satisfy the original system.
func TestCholeskySPDProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := randSPD(rng, n)
		ch, err := Cholesky(a)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := ch.SolveVec(b)
		res := a.MulVec(x)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-6*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestEigenTraceProperty: the eigenvalue sum equals the trace and the
// eigenvalue product of an SPD matrix is positive.
func TestEigenTraceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		a := randSPD(rng, n)
		es, err := SymEig(a)
		if err != nil {
			return false
		}
		trace, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += es.Values[i]
		}
		return math.Abs(trace-sum) <= 1e-7*(1+math.Abs(trace))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSVDNormProperty: the largest singular value equals the spectral norm
// bound check ‖Av‖ <= σ₁‖v‖ for random vectors, and the Frobenius norm
// equals sqrt(Σ σᵢ²).
func TestSVDNormProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 2 + rng.Intn(8)
		c := 2 + rng.Intn(8)
		a := randMatrix(rng, r, c)
		f, err := SVD(a)
		if err != nil {
			return false
		}
		// Frobenius identity.
		ss := 0.0
		p := min(r, c)
		for i := 0; i < p; i++ {
			ss += f.S[i] * f.S[i]
		}
		if fro := Norm(a.Data); math.Abs(math.Sqrt(ss)-fro) > 1e-8*(1+fro) {
			return false
		}
		// Spectral bound.
		v := make([]float64, c)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		av := a.MulVec(v)
		return Norm(av) <= f.S[0]*Norm(v)*(1+1e-9)+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCenterColumnsProperty: after centering, every column mean is zero
// and re-adding the means restores the original matrix.
func TestCenterColumnsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(12)
		c := 1 + rng.Intn(6)
		a := randMatrix(rng, r, c)
		orig := a.Clone()
		means := a.CenterColumns()
		for j := 0; j < c; j++ {
			if math.Abs(Mean(a.Col(j))) > 1e-10 {
				return false
			}
		}
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if math.Abs(a.At(i, j)+means[j]-orig.At(i, j)) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestTriangleInequalityProperty for the distance helpers.
func TestTriangleInequalityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
