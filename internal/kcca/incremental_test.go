package kcca

import (
	"errors"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/statutil"
)

// retrainShape is one window shape of the suites that slide a window and
// retrain: one at the automatic rank, one at an explicit rank far below the
// window size, so the kept block is cut from a long spectrum.
type retrainShape struct {
	name      string
	n, rank   int // rank 0 is the automatic rank
	templates int
	jitter    float64
}

var retrainShapes = []retrainShape{
	{name: "auto-rank", n: 160, rank: 0, templates: 20, jitter: 0.05},
	// Rank 3 keeps a small block of a twenty-template spectrum.
	{name: "fixed-rank", n: 240, rank: 3, templates: 20, jitter: 0.05},
}

func (sh retrainShape) options() Options {
	opt := DefaultOptions()
	opt.Rank = sh.rank
	return opt
}

// tmplGen generates template-clustered workload rows, the regime the paper
// trains on: queries instantiate a modest number of templates, so feature
// vectors cluster around per-template centers (with per-instance jitter from
// differing constants), and template magnitudes spread over orders of
// magnitude like cardinality features. The resulting kernel spectrum has one
// dominant eigenvalue per template and then decays.
type tmplGen struct {
	r       *statutil.RNG
	centers [][]float64
	d, e    int
	jitter  float64
}

// newTmplGen builds a generator with the given per-instance jitter.
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
// incremental retrain to a from-scratch Train on the identical rows (slot
// order, frozen scales), bit for bit, at each window shape.
func TestIncrementalMatchesFullRetrain(t *testing.T) {
	for _, sh := range retrainShapes {
		t.Run(sh.name, func(t *testing.T) { testIncrementalMatchesFull(t, sh) })
	}
}

func testIncrementalMatchesFull(t *testing.T, sh retrainShape) {
	const d, e = 8, 4
	n := sh.n
	g := newTmplGen(statutil.NewRNG(11, "inc-equiv"), d, e, sh.templates, sh.jitter)
	opt := sh.options()

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
	served := 0
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
		rebuildsBefore := retrainFull.Value()
		got, err := inc.Retrain()
		if err != nil {
			t.Fatalf("round %d: incremental retrain: %v", round, err)
		}
		if retrainFull.Value() != rebuildsBefore {
			t.Fatalf("round %d: the incremental retrain rebuilt its kernels", round)
		}
		served++
		// The incremental retrain runs at the τ frozen by the last full
		// rebuild (that is the point of the drift guard), so the full-train
		// comparate is pinned to the same scales; the guard separately
		// bounds how far those may sit from a fresh heuristic.
		pinned := opt
		pinned.TauX, pinned.TauY = got.TauX, got.TauY
		want, err := Train(denseOf(xs), denseOf(ys), pinned)
		if err != nil {
			t.Fatalf("round %d: reference train: %v", round, err)
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
		requireIdentical(t, got, want, probes)
	}
	if served < 3 {
		t.Fatalf("only %d of 6 rounds were served incrementally; the test is not exercising the incremental path", served)
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
// exactly one full rebuild and then resumes incrementally, at each window
// shape.
func TestIncrementalDriftGuard(t *testing.T) {
	for _, sh := range retrainShapes {
		t.Run(sh.name, func(t *testing.T) { testIncrementalDriftGuard(t, sh) })
	}
}

func testIncrementalDriftGuard(t *testing.T, sh retrainShape) {
	const d, e = 8, 4
	n := sh.n
	g := newTmplGen(statutil.NewRNG(19, "inc-drift"), d, e, sh.templates, sh.jitter)
	opt := sh.options()
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

// TestIncrementalFlatSpectrum is the degenerate-spectrum case: twenty
// equally weighted templates with almost no jitter at rank 3 put the rank cut
// inside a plateau of equal eigenvalues, where which eigenvectors are kept is
// decided by rounding alone. The retrain must still be served from the
// maintained kernels, with no rebuild, and equal Train bit for bit.
func TestIncrementalFlatSpectrum(t *testing.T) {
	const d, e, n, rank = 8, 4, 240, 3
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

	incBefore, rebuildsBefore := retrainInc.Value(), retrainFull.Value()
	got, err := inc.Retrain()
	if err != nil {
		t.Fatalf("retrain on a flat spectrum: %v", err)
	}
	if retrainInc.Value() != incBefore+1 || retrainFull.Value() != rebuildsBefore {
		t.Fatalf("flat-spectrum retrain was not served from the maintained kernels: incremental +%d, full +%d",
			retrainInc.Value()-incBefore, retrainFull.Value()-rebuildsBefore)
	}
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
