package knn

import (
	"testing"

	"repro/internal/linalg/kerneltest"
)

// The Euclidean index scores leaves through linalg.SqDistCols, which has an
// AVX2 routine: the suite runs on both kernel paths.
func TestMain(m *testing.M) { kerneltest.Main(m) }
