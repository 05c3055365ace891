//go:build !amd64

package linalg

// Without the amd64 assembly the portable loops in kernels.go do all the
// work: no block is ever covered.

const haveAVX2, haveVectorExp = false, false

func tmulvecBlocks(out []float64, m *Matrix, v []float64) int    { return 0 }
func sqDistColsBlocks(out []float64, t *Matrix, q []float64) int { return 0 }
func rotateBlocks(lo, hi []float64, c, s float64) int            { return 0 }
func subScaledBlocks(t, d []float64, g float64) int              { return 0 }
func subRank2Blocks(t, e, d []float64, f, g float64) int         { return 0 }
func sweepBlocks(v []float64, stride, w int, cs []float64) int   { return 0 }
func subOuterBlocks(b, g, d []float64) int                       { return 0 }
func addScaledBlocks(y, x []float64, a float64) int              { return 0 }
func expNegScaledBlocks(out, d []float64, tau float64) int       { return 0 }
