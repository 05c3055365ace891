package kernels

import (
	"testing"

	"repro/internal/linalg"
	"repro/internal/statutil"
)

func randRow(r *statutil.RNG, d int, scale float64) []float64 {
	row := make([]float64, d)
	for i := range row {
		row[i] = scale * r.NormFloat64()
	}
	return row
}

// TestMaintainedMatchesFullRebuild drives a Maintained state through the
// sliding-window life cycle — grow, rebuild, a long run of replacements —
// and checks the kernel matrix and τ candidate against a from-scratch
// computation.
func TestMaintainedMatchesFullRebuild(t *testing.T) {
	const d, capacity = 7, 40
	r := statutil.NewRNG(3, "maintained")
	m := NewMaintained(d, capacity, 0.1, 0)

	for i := 0; i < capacity; i++ {
		m.Append(randRow(r, d, 1))
	}
	if m.Synced() {
		t.Fatal("synced before first rebuild")
	}
	m.Rebuild()
	if !m.Synced() {
		t.Fatal("not synced after rebuild")
	}
	if want := ScaleHeuristic(m.X, 0.1); m.Tau != want {
		t.Fatalf("rebuild tau %v, want heuristic %v", m.Tau, want)
	}

	slot := 0
	for step := 0; step < 200; step++ {
		m.Replace(slot, randRow(r, d, 1))
		slot = (slot + 1) % capacity
	}

	// The raw kernel matrix must be bit-identical to a fresh build at the
	// frozen τ: each entry is the same Gaussian of the same inputs.
	want := Matrix(m.X, m.Tau)
	for i := range want.Data {
		if m.K.Data[i] != want.Data[i] {
			t.Fatalf("kernel entry %d: maintained %v, fresh %v", i, m.K.Data[i], want.Data[i])
		}
	}
	// τ candidate is the exact heuristic value.
	if want := ScaleHeuristic(m.X, 0.1); m.TauCandidate() != want {
		t.Fatalf("tau candidate %v, want %v", m.TauCandidate(), want)
	}
}

// TestMaintainedCenteredMatchesFresh checks the centering a retrain does on
// the maintained kernel: CenterInto one retained scratch after each burst of
// replacements yields the centered matrix, row means and grand mean of a
// from-scratch kernel at the frozen τ, bit for bit — the scratch carries
// nothing from one retrain to the next.
func TestMaintainedCenteredMatchesFresh(t *testing.T) {
	const d, n = 5, 30
	r := statutil.NewRNG(9, "centered")
	m := NewMaintained(d, n, 0.1, 0)
	for i := 0; i < n; i++ {
		m.Append(randRow(r, d, 1))
	}
	m.Rebuild()
	scratch := linalg.NewMatrix(n, n)
	for burst := 0; burst < 4; burst++ {
		for step := 0; step < 7; step++ {
			m.Replace((burst*7+step)%n, randRow(r, d, 1))
		}
		gotMeans, gotGrand := CenterInto(scratch, m.K)
		want, wantMeans, wantGrand := Center(Matrix(m.X, m.Tau))
		for i := range want.Data {
			if scratch.Data[i] != want.Data[i] {
				t.Fatalf("burst %d: centered entry %d: maintained %v, fresh %v", burst, i, scratch.Data[i], want.Data[i])
			}
		}
		for i := range wantMeans {
			if gotMeans[i] != wantMeans[i] {
				t.Fatalf("burst %d: row mean %d: maintained %v, fresh %v", burst, i, gotMeans[i], wantMeans[i])
			}
		}
		if gotGrand != wantGrand {
			t.Fatalf("burst %d: grand mean: maintained %v, fresh %v", burst, gotGrand, wantGrand)
		}
	}
}

func TestMaintainedDriftGuard(t *testing.T) {
	const d, n = 4, 25
	r := statutil.NewRNG(21, "drift")
	m := NewMaintained(d, n, 0.1, 0)
	for i := 0; i < n; i++ {
		m.Append(randRow(r, d, 1))
	}
	m.Rebuild()
	if m.Drifted(0.1) {
		t.Fatal("drifted immediately after rebuild")
	}
	// Replace rows with ever-larger-norm rows until the heuristic moves.
	scale := 1.0
	fired := false
	for step := 0; step < 200; step++ {
		scale *= 1.1
		m.Replace(step%n, randRow(r, d, scale))
		if m.Drifted(0.1) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("drift guard never fired under norm inflation")
	}
	m.Rebuild()
	if m.Drifted(0.1) {
		t.Fatal("still drifted after rebuild")
	}
}

func TestMaintainedTauOverride(t *testing.T) {
	const d, n = 4, 20
	r := statutil.NewRNG(5, "override")
	m := NewMaintained(d, n, 0.1, 3.5)
	for i := 0; i < n; i++ {
		m.Append(randRow(r, d, 1))
	}
	m.Rebuild()
	if m.Tau != 3.5 {
		t.Fatalf("tau = %v, want pinned 3.5", m.Tau)
	}
	for step := 0; step < 50; step++ {
		m.Replace(step%n, randRow(r, d, float64(step+2)))
	}
	if m.Drifted(0.01) {
		t.Fatal("pinned tau reported drift")
	}
	if m.K.At(0, 1) != Gaussian(m.X.Row(0), m.X.Row(1), 3.5) {
		t.Fatal("kernel not at pinned scale")
	}
}

// TestMaintainedUnsyncedReplace covers replacement during the grow phase:
// rows and norms update, kernel state stays invalid until Rebuild.
func TestMaintainedUnsyncedReplace(t *testing.T) {
	const d = 3
	r := statutil.NewRNG(8, "unsynced")
	m := NewMaintained(d, 10, 0.1, 0)
	for i := 0; i < 6; i++ {
		m.Append(randRow(r, d, 1))
	}
	row := randRow(r, d, 2)
	m.Replace(2, row)
	if m.Synced() {
		t.Fatal("synced without rebuild")
	}
	for j, v := range row {
		if m.X.At(2, j) != v {
			t.Fatal("row not stored")
		}
	}
	if m.norms[2] != linalg.Norm(row) {
		t.Fatal("norm not updated")
	}
	m.Rebuild()
	want := Matrix(m.X, m.Tau)
	for i := range want.Data {
		if m.K.Data[i] != want.Data[i] {
			t.Fatal("rebuild kernel mismatch")
		}
	}
}
