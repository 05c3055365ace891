package linalg_test

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/linalg/kerneltest"
)

func TestMain(m *testing.M) {
	linalg.KernelMatrix = kernels.Matrix
	kerneltest.Main(m)
}
