// Package features builds the feature vectors of Sec. VI-D of the paper:
//
//   - the query plan feature vector (Fig. 9): an instance count and a
//     cardinality sum for each physical operator type, computed from the
//     optimizer's ESTIMATED cardinalities (only information available
//     before execution);
//
//   - the SQL text feature vector (Sec. VI-D.1): nine statistics computed
//     by parsing the statement text;
//
//   - the performance feature vector: the six measured metrics.
//
// Cardinality sums and performance metrics are log1p-transformed inside
// the kernel-facing vectors: the Gaussian kernel compares squared
// Euclidean distances, and the paper's own observation that the model
// works off "the relative similarity of the cardinalities" — ratios, not
// absolute differences — is exactly a log-scale comparison. Raw metric
// vectors (for neighbor averaging, which the paper does on raw values)
// are kept separately.
package features

import (
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/linalg"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
)

// PlanVectorLen is the dimensionality of the plan feature vector: one
// (count, cardinality-sum) pair per operator type.
const PlanVectorLen = 2 * optimizer.NumOpTypes

// PlanVector computes the query plan feature vector from estimated
// cardinalities.
func PlanVector(p *optimizer.Plan) []float64 {
	out := make([]float64, PlanVectorLen)
	p.Root.Walk(func(n *optimizer.Node) {
		i := int(n.Op)
		out[2*i]++
		out[2*i+1] += n.EstRows
	})
	for i := 0; i < optimizer.NumOpTypes; i++ {
		out[2*i+1] = math.Log1p(out[2*i+1])
	}
	return out
}

// PlanVectorRaw computes the plan feature vector with RAW cardinality sums
// (no log transform) — the covariates exactly as the paper's regression
// baseline used them (Sec. V-A).
func PlanVectorRaw(p *optimizer.Plan) []float64 {
	out := make([]float64, PlanVectorLen)
	p.Root.Walk(func(n *optimizer.Node) {
		i := int(n.Op)
		out[2*i]++
		out[2*i+1] += n.EstRows
	})
	return out
}

// PlanFeatureNames returns the names of the plan vector elements.
func PlanFeatureNames() []string {
	names := make([]string, 0, PlanVectorLen)
	for _, op := range optimizer.AllOpTypes() {
		names = append(names, op.String()+"_count", op.String()+"_logcardsum")
	}
	return names
}

// SQLVector computes the nine SQL-text statistics by parsing the statement.
func SQLVector(sql string) ([]float64, error) {
	ts, err := sqlparse.TextStats(sql)
	if err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	return ts.Vector(), nil
}

// PerfKernelVector returns the log1p-transformed performance vector: the
// performance view of the two-view fits (the Sec. V-D CCA baseline, and the
// two-view KCCA that kcca's tests hold Train to).
func PerfKernelVector(m exec.Metrics) []float64 {
	v := m.Vector()
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Log1p(x)
	}
	return out
}

// PerfRawVector returns the untransformed metric vector used when
// averaging neighbor metrics into a prediction.
func PerfRawVector(m exec.Metrics) []float64 { return m.Vector() }

// Matrices assembles feature matrices from per-item vectors.
func Matrices(vectors [][]float64) *linalg.Matrix {
	if len(vectors) == 0 {
		return linalg.NewMatrix(0, 0)
	}
	return linalg.FromRows(vectors)
}
