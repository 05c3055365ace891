package kcca

import (
	"errors"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/statutil"
)

// incEquivTol is the documented equivalence tolerance between an incremental
// retrain served by the iterative eigensolver and a full dense retrain on
// the same window at the same (frozen) kernel scales: the only difference
// between the two is the iteration's relative residual tolerance (1e-11),
// which kernel-PCA whitening and the CCA solve amplify by a few orders of
// magnitude on the way into projection coordinates. A retrain served by the
// dense solver has no tolerance: it is the full retrain, bit for bit. The
// scales themselves are the τ-drift guard's business: it keeps the frozen τ
// within Options.TauDriftTol (10%) of what a fresh heuristic would choose,
// forcing an exact full rebuild beyond that.
const incEquivTol = 1e-6

// retrainShape is one window shape of the two-sided suites: every suite
// that exercises the incremental retrain runs one shape chooseSolver sends
// to the dense solver and one it sends to the iteration, so neither the
// bit-identical path nor the warm-eigenbasis path loses its coverage.
type retrainShape struct {
	name      string
	n, rank   int // rank 0 is the automatic rank
	templates int
	jitter    float64
	iterative bool
}

var retrainShapes = []retrainShape{
	{name: "dense", n: 160, rank: 0, templates: 20, jitter: 0.05},
	// Eight templates at rank 3 leave a gap below the block (the iteration
	// converges in ~7 steps); twenty would put the cut inside a plateau of
	// equal template eigenvalues — TestIterationGivesUpWithinBudget's case.
	{name: "iterative", n: 480, rank: 3, templates: 8, jitter: 0.05, iterative: true},
}

func (sh retrainShape) options(t *testing.T) Options {
	t.Helper()
	opt := DefaultOptions()
	opt.Rank = sh.rank
	if it := chooseSolver(sh.n, resolveRank(sh.n, opt)) > 0; it != sh.iterative {
		t.Fatalf("shape %s (n=%d rank=%d): chooseSolver iterative=%v, the suite needs %v",
			sh.name, sh.n, sh.rank, it, sh.iterative)
	}
	return opt
}

// TestChooseSolver pins the selection rule: the daemon's stock shape and
// small windows solve densely, large windows at small rank iterate, and at
// fixed rank the choice is monotone in n — dense (budget 0) up to one
// crossover, then the iteration with a budget that only grows.
func TestChooseSolver(t *testing.T) {
	for _, c := range []struct {
		n, rank   int
		iterative bool
	}{
		{500, 80, false}, // qpredictd defaults: window 500, auto rank
		{120, 30, false},
		{40, 10, false},
		{20, 19, false},   // block as wide as the matrix
		{1000, 80, false}, // measured break-even 9.6 iterations
		{4000, 80, true},
		{800, 8, true},
		{480, 3, true},
	} {
		if got := chooseSolver(c.n, c.rank) > 0; got != c.iterative {
			t.Errorf("chooseSolver(%d, %d): iterative = %v, want %v", c.n, c.rank, got, c.iterative)
		}
	}
	for _, rank := range []int{3, 8, 30, 80} {
		last := 0
		for n := rank + 2; n <= 8000; n += 7 {
			budget := chooseSolver(n, rank)
			if budget < last {
				t.Fatalf("rank %d: budget falls from %d to %d at n=%d", rank, last, budget, n)
			}
			if budget > 0 && budget < iterTypical {
				t.Fatalf("rank %d n=%d: iterative with budget %d below the typical %d iterations", rank, n, budget, iterTypical)
			}
			last = budget
		}
		if last == 0 {
			t.Errorf("rank %d: never chooses the iteration up to n=8000", rank)
		}
	}
}

// tmplGen generates template-clustered workload rows, the regime the paper
// trains on: queries instantiate a modest number of templates, so feature
// vectors cluster around per-template centers (with per-instance jitter from
// differing constants), and template magnitudes spread over orders of
// magnitude like cardinality features. The resulting kernel spectrum has one
// dominant eigenvalue per template and then decays — the shape that makes a
// top-rank iteration converge. (Unstructured unit-normal rows instead make
// the kernel near-identity with a flat spectral plateau; the incremental
// path then correctly stalls and falls back to dense, which is the wrong
// path to exercise here.)
type tmplGen struct {
	r       *statutil.RNG
	centers [][]float64
	d, e    int
	jitter  float64
}

// newTmplGen builds a generator with the given per-instance jitter. Large
// jitter (0.05) puts a near-degenerate noise plateau inside the kernel's
// kept spectrum — which the strict iterative solver refuses to serve — so
// the tests exercising the incremental path use jitter small enough that
// noise components fall below the keep threshold, and the ones exercising
// the fallback use large jitter deliberately.
func newTmplGen(r *statutil.RNG, d, e, templates int, jitter float64) *tmplGen {
	g := &tmplGen{r: r, d: d, e: e, jitter: jitter}
	for k := 0; k < templates; k++ {
		mag := 2 * math.Exp(0.6*r.NormFloat64())
		mu := make([]float64, d)
		for i := range mu {
			mu[i] = mag * r.NormFloat64()
		}
		g.centers = append(g.centers, mu)
	}
	return g
}

// pair draws one correlated (x, y) row pair: x jitters around a template
// center, y is a noisy linear image of x so CCA has real structure to find.
// scale inflates the row (the drift-guard tests use it to move the τ
// heuristic).
func (g *tmplGen) pair(scale float64) ([]float64, []float64) {
	mu := g.centers[g.r.Intn(len(g.centers))]
	x := make([]float64, g.d)
	for i := range x {
		x[i] = scale * (mu[i] + g.jitter*g.r.NormFloat64())
	}
	y := make([]float64, g.e)
	for k := range y {
		s := 0.0
		for i := k; i < g.d; i += g.e {
			s += x[i]
		}
		y[k] = s + g.jitter*scale*g.r.NormFloat64()
	}
	return x, y
}

// denseOf builds a matrix from rows in slot order.
func denseOf(rows [][]float64) *linalg.Matrix {
	m := linalg.NewMatrix(len(rows), len(rows[0]))
	for i, row := range rows {
		copy(m.Row(i), row)
	}
	return m
}

// alignColumns flips the sign of each column of got to best match want
// (eigenvector and canonical-direction signs are arbitrary), then returns
// the largest element difference relative to want's largest magnitude.
func alignColumns(t *testing.T, got, want *linalg.Matrix) float64 {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("projection shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	scale := 0.0
	for _, v := range want.Data {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	worst := 0.0
	for j := 0; j < got.Cols; j++ {
		dot := 0.0
		for i := 0; i < got.Rows; i++ {
			dot += got.At(i, j) * want.At(i, j)
		}
		sign := 1.0
		if dot < 0 {
			sign = -1
		}
		for i := 0; i < got.Rows; i++ {
			d := math.Abs(sign*got.At(i, j)-want.At(i, j)) / scale
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// requireIdentical asserts got is want bit for bit: scales, kept spectrum,
// kernel-PCA basis, centering state, both training projections, the
// canonical correlations, and the out-of-sample projection of every probe.
func requireIdentical(t *testing.T, got, want *Model, probes [][]float64) {
	t.Helper()
	if got.TauX != want.TauX || got.TauY != want.TauY {
		t.Fatalf("taus (%v, %v) != (%v, %v)", got.TauX, got.TauY, want.TauX, want.TauY)
	}
	if got.grandX != want.grandX {
		t.Fatalf("grand mean %v != %v", got.grandX, want.grandX)
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"lamx", got.lamx, want.lamx},
		{"Correlations", got.Correlations, want.Correlations},
		{"rowMeansX", got.rowMeansX, want.rowMeansX},
		{"ux", got.ux.Data, want.ux.Data},
		{"QueryProj", got.QueryProj.Data, want.QueryProj.Data},
		{"PerfProj", got.PerfProj.Data, want.PerfProj.Data},
	} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d values, want %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Fatalf("%s[%d]: %v != %v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
	for pi, q := range probes {
		gp, wp := got.ProjectQuery(q), want.ProjectQuery(q)
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("probe %d coordinate %d: %v != %v", pi, i, gp[i], wp[i])
			}
		}
	}
}

// TestIncrementalMatchesFullRetrain slides a window and holds each
// incremental retrain to a from-scratch dense Train on the identical rows
// (slot order, frozen scales): bit for bit where the dense solver served
// it, within the documented tolerance where the iteration did. Each side of
// chooseSolver's rule runs its own window shape.
func TestIncrementalMatchesFullRetrain(t *testing.T) {
	for _, sh := range retrainShapes {
		t.Run(sh.name, func(t *testing.T) { testIncrementalMatchesFull(t, sh) })
	}
}

func testIncrementalMatchesFull(t *testing.T, sh retrainShape) {
	const d, e = 8, 4
	n := sh.n
	g := newTmplGen(statutil.NewRNG(11, "inc-equiv"), d, e, sh.templates, sh.jitter)
	opt := sh.options(t)

	xs := make([][]float64, 0, n)
	ys := make([][]float64, 0, n)
	inc := NewIncremental(opt, n)
	for i := 0; i < n; i++ {
		x, y := g.pair(1)
		xs, ys = append(xs, x), append(ys, y)
		inc.Append(x, y)
	}
	if !inc.NeedsFull() {
		t.Fatal("fresh window should need a full train")
	}
	if _, err := inc.Retrain(); !errors.Is(err, ErrNeedFull) {
		t.Fatalf("Retrain before full train: err = %v, want ErrNeedFull", err)
	}
	_, seed, err := inc.TrainFull(denseOf(xs), denseOf(ys))
	if err != nil {
		t.Fatal(err)
	}
	inc.Install(seed)
	probes := make([][]float64, 5)
	for i := range probes {
		probes[i], _ = g.pair(1)
	}

	slot := 0
	servedAsShaped := 0
	for round := 0; round < 6; round++ {
		for step := 0; step < 10; step++ {
			x, y := g.pair(1)
			xs[slot], ys[slot] = x, y
			inc.Replace(slot, x, y)
			slot = (slot + 1) % n
		}
		if inc.NeedsFull() {
			// The τ-drift guard fired (redrawing rows from heavy-tailed
			// templates can move Var(norms) beyond tolerance) — the
			// production loop runs the exact full path here.
			_, seed, err := inc.TrainFull(denseOf(xs), denseOf(ys))
			if err != nil {
				t.Fatalf("round %d: full rebuild: %v", round, err)
			}
			inc.Install(seed)
			continue
		}
		iterBefore, rebuildsBefore := solverIter.Value(), retrainFull.Value()
		got, err := inc.Retrain()
		if err != nil {
			t.Fatalf("round %d: incremental retrain: %v", round, err)
		}
		if retrainFull.Value() != rebuildsBefore {
			t.Fatalf("round %d: the incremental retrain rebuilt its kernels", round)
		}
		iterated := solverIter.Value() != iterBefore
		if iterated == sh.iterative {
			servedAsShaped++
		}
		// The incremental retrain runs at the τ frozen by the last full
		// rebuild (that is the point of the drift guard), so the dense
		// comparate is pinned to the same scales; the guard separately
		// bounds how far those may sit from a fresh heuristic.
		pinned := opt
		pinned.TauX, pinned.TauY = got.TauX, got.TauY
		want, err := Train(denseOf(xs), denseOf(ys), pinned)
		if err != nil {
			t.Fatalf("round %d: dense train: %v", round, err)
		}
		for _, tau := range []struct{ frozen, cand float64 }{
			{got.TauX, inc.mx.TauCandidate()},
			{got.TauY, inc.my.TauCandidate()},
		} {
			// Default TauDriftTol is 0.1; NeedsFull was false above, so the
			// frozen scales must sit within it.
			if math.Abs(tau.frozen-tau.cand) > 0.1*tau.frozen {
				t.Fatalf("round %d: frozen τ %v beyond drift tolerance of candidate %v", round, tau.frozen, tau.cand)
			}
		}
		if !iterated {
			requireIdentical(t, got, want, probes)
			continue
		}
		if len(got.lamx) != len(want.lamx) {
			t.Fatalf("round %d: kept %d X components, dense kept %d", round, len(got.lamx), len(want.lamx))
		}
		for j := range want.lamx {
			if rel := math.Abs(got.lamx[j]-want.lamx[j]) / want.lamx[0]; rel > incEquivTol {
				t.Fatalf("round %d: eigenvalue %d rel error %v", round, j, rel)
			}
		}
		for j := range want.Correlations {
			if math.Abs(got.Correlations[j]-want.Correlations[j]) > incEquivTol {
				t.Fatalf("round %d: correlation %d: %v vs %v", round, j,
					got.Correlations[j], want.Correlations[j])
			}
		}
		if worst := alignColumns(t, got.QueryProj, want.QueryProj); worst > incEquivTol {
			t.Fatalf("round %d: query projection rel error %v > %v", round, worst, incEquivTol)
		}
		if worst := alignColumns(t, got.PerfProj, want.PerfProj); worst > incEquivTol {
			t.Fatalf("round %d: perf projection rel error %v > %v", round, worst, incEquivTol)
		}
	}
	if servedAsShaped < 3 {
		t.Fatalf("only %d of 6 rounds were served incrementally by the %s solver; the test is not exercising it",
			servedAsShaped, sh.name)
	}
}

// TestTrainFullBitIdentical is the exact-match leg of the equivalence
// discipline: when the τ-drift guard (or any other condition) routes a
// retrain down TrainFull, the resulting model must be bit-for-bit the model
// Train produces on the same rows — same scales, eigenvalues, projections.
func TestTrainFullBitIdentical(t *testing.T) {
	const d, e, n = 6, 3, 60
	g := newTmplGen(statutil.NewRNG(7, "full-exact"), d, e, 12, 0.05)
	xs := make([][]float64, 0, n)
	ys := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		x, y := g.pair(1)
		xs, ys = append(xs, x), append(ys, y)
	}
	opt := DefaultOptions()
	inc := NewIncremental(opt, n)
	got, _, err := inc.TrainFull(denseOf(xs), denseOf(ys))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Train(denseOf(xs), denseOf(ys), opt)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, want, xs[:5])
}

// TestIncrementalDriftGuard inflates row norms until the τ-drift guard
// fires, and asserts via the obs counters that the retrain path switches to
// exactly one full rebuild and then resumes incrementally — on either side
// of the solver rule.
func TestIncrementalDriftGuard(t *testing.T) {
	for _, sh := range retrainShapes {
		t.Run(sh.name, func(t *testing.T) { testIncrementalDriftGuard(t, sh) })
	}
}

func testIncrementalDriftGuard(t *testing.T, sh retrainShape) {
	const d, e = 8, 4
	n := sh.n
	g := newTmplGen(statutil.NewRNG(19, "inc-drift"), d, e, sh.templates, sh.jitter)
	opt := sh.options(t)
	xs := make([][]float64, 0, n)
	ys := make([][]float64, 0, n)
	inc := NewIncremental(opt, n)
	for i := 0; i < n; i++ {
		x, y := g.pair(1)
		xs, ys = append(xs, x), append(ys, y)
		inc.Append(x, y)
	}
	_, seed, err := inc.TrainFull(denseOf(xs), denseOf(ys))
	if err != nil {
		t.Fatal(err)
	}
	inc.Install(seed)

	retrain := func() {
		t.Helper()
		if inc.NeedsFull() {
			_, seed, err := inc.TrainFull(denseOf(xs), denseOf(ys))
			if err != nil {
				t.Fatal(err)
			}
			inc.Install(seed)
			return
		}
		if _, err := inc.Retrain(); err != nil {
			t.Fatal(err)
		}
	}

	// Stable scale: retrains stay incremental.
	fullBefore, incBefore := retrainFull.Value(), retrainInc.Value()
	slot := 0
	for step := 0; step < 8; step++ {
		x, y := g.pair(1)
		xs[slot], ys[slot] = x, y
		inc.Replace(slot, x, y)
		slot = (slot + 1) % n
	}
	retrain()
	if got := retrainFull.Value() - fullBefore; got != 0 {
		t.Fatalf("stable scale: %d full retrains, want 0", got)
	}
	if got := retrainInc.Value() - incBefore; got != 1 {
		t.Fatalf("stable scale: %d incremental retrains, want 1", got)
	}

	// Inflate norms until the guard fires, then retrain once more: exactly
	// one full rebuild, and incremental service resumes after it.
	fullBefore = retrainFull.Value()
	scale := 1.0
	for !inc.NeedsFull() {
		scale *= 2
		x, y := g.pair(scale)
		xs[slot], ys[slot] = x, y
		inc.Replace(slot, x, y)
		slot = (slot + 1) % n
	}
	if got := retrainFull.Value() - fullBefore; got != 0 {
		t.Fatalf("full retrain ran before the guard fired (%d)", got)
	}
	retrain() // the guard-triggered full rebuild
	if got := retrainFull.Value() - fullBefore; got != 1 {
		t.Fatalf("drift: %d full retrains, want exactly 1", got)
	}
	if inc.NeedsFull() {
		t.Fatal("still needs full right after guard-triggered rebuild")
	}
	incAfter := retrainInc.Value()
	x, y := g.pair(scale)
	xs[slot], ys[slot] = x, y
	inc.Replace(slot, x, y)
	retrain()
	if retrainInc.Value() != incAfter+1 || retrainFull.Value()-fullBefore != 1 {
		t.Fatal("retrain after rebuild did not go incremental")
	}
}

// TestIterationGivesUpWithinBudget is the flat-spectrum case: twenty
// equally weighted templates at rank 3 put the cut inside a plateau, the
// iteration cannot reach its tolerance, and the retrain must still be served
// from the maintained kernels — the iteration stops at its break-even budget
// and the dense solve runs on the same kernels, bit-identical to Train, with
// no kernel rebuild.
func TestIterationGivesUpWithinBudget(t *testing.T) {
	const d, e, n, rank = 8, 4, 480, 3
	budget := chooseSolver(n, rank)
	if budget == 0 {
		t.Fatalf("chooseSolver(%d, %d) is dense; the case needs the iterative side", n, rank)
	}
	g := newTmplGen(statutil.NewRNG(11, "flat-spectrum"), d, e, 20, 1e-6)
	opt := DefaultOptions()
	opt.Rank = rank
	xs := make([][]float64, 0, n)
	ys := make([][]float64, 0, n)
	inc := NewIncremental(opt, n)
	for i := 0; i < n; i++ {
		x, y := g.pair(1)
		xs, ys = append(xs, x), append(ys, y)
		inc.Append(x, y)
	}
	_, seed, err := inc.TrainFull(denseOf(xs), denseOf(ys))
	if err != nil {
		t.Fatal(err)
	}
	inc.Install(seed)
	for slot := 0; slot < 10; slot++ {
		x, y := g.pair(1)
		xs[slot], ys[slot] = x, y
		inc.Replace(slot, x, y)
	}
	if inc.NeedsFull() {
		t.Fatal("ten redraws from the same templates tripped the τ-drift guard")
	}

	iters := obs.GetHistogram("linalg.eigen_iter.iterations")
	callsBefore, itersBefore := iters.Count(), iters.Sum()
	denseBefore, incBefore, rebuildsBefore := solverDense.Value(), retrainInc.Value(), retrainFull.Value()
	got, err := inc.Retrain()
	if err != nil {
		t.Fatalf("retrain on a flat spectrum: %v", err)
	}
	if fell := solverDense.Value() - denseBefore; fell != 2 {
		t.Fatalf("%d of 2 views fell back to the dense solve; the spectrum is not flat enough to test the give-up path", fell)
	}
	if retrainInc.Value() != incBefore+1 || retrainFull.Value() != rebuildsBefore {
		t.Fatalf("give-up was not served from the maintained kernels: incremental +%d, full +%d",
			retrainInc.Value()-incBefore, retrainFull.Value()-rebuildsBefore)
	}
	calls := iters.Count() - callsBefore
	if calls != 2 {
		t.Fatalf("%d iterative solves recorded, want one per view", calls)
	}
	if spent := iters.Sum() - itersBefore; spent > float64(2*budget) {
		t.Fatalf("the two views spent %v iterations, over their budget of %d each", spent, budget)
	}
	// Both views fell back: the retrain is the dense one, bit for bit.
	pinned := opt
	pinned.TauX, pinned.TauY = got.TauX, got.TauY
	want, err := Train(denseOf(xs), denseOf(ys), pinned)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, want, xs[:5])
}

// TestInvalidateForcesFull checks the stale flag the sliding predictor uses
// when a window moved during an unlocked full train.
func TestInvalidateForcesFull(t *testing.T) {
	const d, e, n = 6, 3, 80
	g := newTmplGen(statutil.NewRNG(29, "invalidate"), d, e, 10, 0.05)
	xs := make([][]float64, 0, n)
	ys := make([][]float64, 0, n)
	inc := NewIncremental(DefaultOptions(), n)
	for i := 0; i < n; i++ {
		x, y := g.pair(1)
		xs, ys = append(xs, x), append(ys, y)
		inc.Append(x, y)
	}
	_, seed, err := inc.TrainFull(denseOf(xs), denseOf(ys))
	if err != nil {
		t.Fatal(err)
	}
	inc.Install(seed)
	if inc.NeedsFull() {
		t.Fatal("needs full right after install")
	}
	inc.Invalidate()
	if !inc.NeedsFull() {
		t.Fatal("Invalidate did not force the full path")
	}
	if _, err := inc.Retrain(); !errors.Is(err, ErrNeedFull) {
		t.Fatalf("Retrain on stale state: err = %v, want ErrNeedFull", err)
	}
	_, seed, err = inc.TrainFull(denseOf(xs), denseOf(ys))
	if err != nil {
		t.Fatal(err)
	}
	inc.Install(seed)
	if inc.NeedsFull() {
		t.Fatal("still stale after reinstall")
	}
}
