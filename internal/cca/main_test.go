package cca_test

import (
	"testing"

	"repro/internal/linalg/kerneltest"
)

func TestMain(m *testing.M) { kerneltest.Main(m) }
