// Package kerneltest lets the suites of linalg and of the packages built on
// its kernels hold on both kernel paths without a build tag.
package kerneltest

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/linalg"
)

// Main is a TestMain body: it runs the suite as the process came up, and —
// if that passed on the AVX2 kernels — once more on the portable loops, the
// path a host without AVX2 or another architecture takes. Benchmark and
// -list runs are not repeated.
func Main(m *testing.M) {
	code := m.Run()
	once := flag.Lookup("test.bench").Value.String() != "" || flag.Lookup("test.list").Value.String() != ""
	if code == 0 && !once && linalg.SetVectorKernels(false) {
		fmt.Println("=== AVX2 kernels off: running the suite again on the portable loops")
		code = m.Run()
	}
	os.Exit(code)
}
