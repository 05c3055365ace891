package kcca

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cca"
	"repro/internal/frame"
	"repro/internal/kernels"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/testutil"
)

// trainTwoView is the two-view KCCA fit Train replaced, kept as the
// reference Train is held to: the query view x and the performance view y
// each kernelized (y at the scale fraction tauFracY; the paper's is 0.2),
// centered and reduced by kernel PCA at the same rank, then cca.Fit between
// the two keeping every canonical dimension, min(rx, ry). It returns the
// model with the two views' kernel-PCA ranks.
func trainTwoView(x, y *linalg.Matrix, opt Options, tauFracY float64) (m *Model, rx, ry int, err error) {
	opt = applyDefaults(opt)
	tauX := kernels.ScaleHeuristic(x, opt.TauFracX)
	kx, ky := kernels.Matrix(x, tauX), kernels.Matrix(y, kernels.ScaleHeuristic(y, tauFracY))
	rowMeansX, grandX := kernels.Center(kx)
	kernels.Center(ky)
	rank := resolveRank(x.Rows, opt)
	phiX, ux, lamx, err := kernelPCA(kx, rank)
	if err != nil {
		return nil, 0, 0, err
	}
	phiY, _, _, err := kernelPCA(ky, rank)
	if err != nil {
		return nil, 0, 0, err
	}
	cm, err := cca.Fit(phiX, phiY, 0, opt.Reg)
	if err != nil {
		return nil, 0, 0, err
	}
	m = &Model{X: x.Clone(), TauX: tauX, rowMeansX: rowMeansX, grandX: grandX, ux: ux, lamx: lamx, ccaModel: cm}
	return m.finish(phiX), phiX.Cols, phiY.Cols, nil
}

// sameQuerySide fails unless one's kernel scale, centering and kernel-PCA
// basis are two's, bit for bit.
func sameQuerySide(t *testing.T, one, two *Model) {
	t.Helper()
	type side struct {
		tau      float64
		rowMeans []float64
		grand    float64
		ux       *linalg.Matrix
		lam      []float64
	}
	a := side{one.TauX, one.rowMeansX, one.grandX, one.ux, one.lamx}
	b := side{two.TauX, two.rowMeansX, two.grandX, two.ux, two.lamx}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the one-view fit's kernel PCA differs from the two-view fit's query side")
	}
}

// neighbourTies holds one's 3-NN lists of the held-out rows to two's. A
// list may differ only at a near-tie: position by position, two's own
// distances from the query to the two lists' members agree within 1e-6
// relative — relative to the larger distance, or to the query's distance
// from the origin where that is larger, the scale rounding works at: a
// training row that duplicates the query sits rounding noise away from it
// in either fit. It returns how many lists differ, reorders included, and
// the widest relative gap among them.
func neighbourTies(t *testing.T, name string, one, two *Model, held *linalg.Matrix) (ties int, worst float64) {
	t.Helper()
	k := min(3, one.N())
	for i := 0; i < held.Rows; i++ {
		q := held.Row(i)
		p1, p2 := one.ProjectQuery(q), two.ProjectQuery(q)
		n1, err := knn.Nearest(one.QueryProj, p1, k, knn.Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		n2, err := knn.Nearest(two.QueryProj, p2, k, knn.Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(indexes(n1), indexes(n2)) {
			continue
		}
		ties++
		for j := range n2 {
			d1 := linalg.Dist(p2, two.QueryProj.Row(n1[j].Index))
			d2 := linalg.Dist(p2, two.QueryProj.Row(n2[j].Index))
			gap := 0.0
			if d1 != d2 {
				gap = math.Abs(d1-d2) / math.Max(math.Max(d1, d2), linalg.Norm(p2))
			}
			if gap > 1e-6 {
				t.Errorf("%s: held-out row %d: neighbours %v, the two-view fit's %v: %v and %v away in its projection",
					name, i, indexes(n1), indexes(n2), d1, d2)
			}
			worst = math.Max(worst, gap)
		}
	}
	return ties, worst
}

func indexes(ns []knn.Neighbor) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.Index
	}
	return out
}

// storedWindow returns the training rows of the model in a file an older
// build wrote — its plan features x, and its performance kernel features y,
// log1p of the raw metric rows the predictor stored — from a core model file
// (a QPREDMDL frame), a sliding snapshot (a QPREDST1 frame holding one) or a
// WAL snapshot (a 28-byte header before the state frame). A snapshot's model
// was trained on the window the snapshot restores.
func storedWindow(t *testing.T, path string) (x, y *linalg.Matrix) {
	t.Helper()
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.HasPrefix(file, []byte("QSNAP001")) {
		file = file[28:]
	}
	if bytes.HasPrefix(file, []byte("QPREDST1")) {
		var state struct{ ModelBytes []byte }
		decodeFrame(t, file, "QPREDST1", &state)
		file = state.ModelBytes
	}
	var pred struct {
		ModelBytes []byte
		PerfRaw    *linalg.Matrix
	}
	decodeFrame(t, file, "QPREDMDL", &pred)
	m, err := Load(bytes.NewReader(pred.ModelBytes))
	if err != nil {
		t.Fatal(err)
	}
	y = pred.PerfRaw.Clone()
	for i, v := range y.Data {
		y.Data[i] = math.Log1p(v)
	}
	return m.X, y
}

// decodeFrame gob-decodes the payload of a frame of core's current format
// (version 2) into v.
func decodeFrame(t *testing.T, file []byte, magic string, v any) {
	t.Helper()
	payload, err := frame.Read(bytes.NewReader(file), magic, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestOneViewKeepsTwoViewNeighbours is the licence for fitting the query
// view alone: on stock windows of every size the daemon trains (the first n
// of the stock stream, and 500-row windows sliding along it) and on the
// windows of the files older builds wrote (pre-43, legacy-sliding, zoo-era),
// Train's kernel PCA is the two-view fit's query side bit for bit, both
// views keep the same rank, and 800 held-out stock queries find the same
// three nearest training rows under both, except at near-ties (see
// neighbourTies). It logs each window's ranks and ties.
func TestOneViewKeepsTwoViewNeighbours(t *testing.T) {
	qs := testutil.StockQueries(t, 2400)
	x, y := testutil.StockFeatures(qs[:1600])
	held, _ := testutil.StockFeatures(qs[1600:])
	type window struct {
		name string
		x, y *linalg.Matrix
	}
	var windows []window
	for _, n := range []int{10, 30, 60, 120, 200, testutil.StockTrain} {
		windows = append(windows, window{fmt.Sprintf("stock n=%d", n), x.SliceRows(0, n), y.SliceRows(0, n)})
	}
	for off := 0; off+500 <= x.Rows; off += 100 {
		windows = append(windows, window{fmt.Sprintf("stock n=500 at %d", off), x.SliceRows(off, off+500), y.SliceRows(off, off+500)})
	}
	zoo, err := filepath.Glob("../../cmd/qpredictd/testdata/zoo-era/shard-0/snap-*.snap")
	if err != nil || len(zoo) != 2 {
		t.Fatalf("zoo-era snapshots %v (%v), want two", zoo, err)
	}
	for _, path := range append([]string{
		"../core/testdata/pre-43/model.bin", "../core/testdata/pre-43/state.snap", "../core/testdata/legacy-sliding/state.snap",
	}, zoo...) {
		wx, wy := storedWindow(t, path)
		windows = append(windows, window{path, wx, wy})
	}

	for _, w := range windows {
		one, err := Train(w.x, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		two, rx, ry, err := trainTwoView(w.x, w.y, DefaultOptions(), 0.2)
		if err != nil {
			t.Fatalf("%s: two-view fit: %v", w.name, err)
		}
		sameQuerySide(t, one, two)
		if ry < rx {
			t.Fatalf("%s: performance rank %d below query rank %d: the two-view fit drops directions", w.name, ry, rx)
		}
		ties, worst := neighbourTies(t, w.name, one, two, held)
		t.Logf("%s: n=%d rx=%d ry=%d: %d of %d neighbour lists differ at near-ties, widest gap %.2g",
			w.name, w.x.Rows, rx, ry, ties, held.Rows, worst)
	}
}
