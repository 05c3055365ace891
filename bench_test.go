// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations over the design choices called out in
// DESIGN.md. Each BenchmarkFig*/BenchmarkTable* target runs the
// corresponding experiment end-to-end on the paper-sized workload (pools
// are generated once and cached across benchmarks) and reports the
// headline accuracy numbers via b.ReportMetric, so a single
//
//	go test -bench=. -benchtime=1x
//
// run reproduces the entire evaluation. cmd/experiments prints the same
// results as formatted reports.
package repro_test

import (
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/kcca"
	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/optimizer"
	"repro/internal/parallel"
	"repro/internal/sqlgen"
	"repro/internal/sqlparse"
	"repro/internal/statutil"
	"repro/internal/workload"
)

var (
	benchOnce sync.Once
	benchLab  *experiments.Lab
)

// lab returns the shared paper-sized experiment lab, generating the query
// pools on first use (outside any benchmark timer).
func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchOnce.Do(func() {
		benchLab = experiments.NewLab(42)
	})
	return benchLab
}

// warm runs fn once outside the timer so pool generation and model
// training caches do not pollute the first measured iteration.
func warm(b *testing.B, fn func() error) {
	b.Helper()
	if err := fn(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
}

func BenchmarkFig02QueryCensus(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.QueryCensus(); return err })
	var res *experiments.CensusResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.QueryCensus()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Total), "pool_queries")
}

func BenchmarkFig03RegressionElapsed(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.RegressionElapsed(); return err })
	var res *experiments.RegressionResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.RegressionElapsed()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Negatives), "negative_preds")
	b.ReportMetric(float64(res.OffBy10x), "preds_10x_off")
}

func BenchmarkFig04RegressionRecords(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.RegressionRecords(); return err })
	var res *experiments.RegressionResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.RegressionRecords()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Risk, "risk")
	b.ReportMetric(float64(res.OffBy10x), "preds_10x_off")
}

func BenchmarkSec5SimplerTechniques(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.Baselines(); return err })
	var res *experiments.BaselinesResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.Baselines()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.KMeansAgreement, "kmeans_agreement")
	b.ReportMetric(res.KCCAWithin20, "kcca_within20")
	b.ReportMetric(res.PCAWithin20, "pca_within20")
}

func BenchmarkFig08SQLTextFeatures(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.SQLTextKCCA(); return err })
	var res *experiments.SQLTextResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.SQLTextKCCA()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SQLText.Risk[exec.MetricElapsed], "sqltext_risk")
	b.ReportMetric(res.PlanRef.Risk[exec.MetricElapsed], "plan_risk")
}

func BenchmarkTable1DistanceMetric(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.DistanceMetricComparison(); return err })
	var res *experiments.DesignTableResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.DistanceMetricComparison()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Cells[0].Risk[exec.MetricElapsed], "euclidean_risk")
	b.ReportMetric(res.Cells[1].Risk[exec.MetricElapsed], "cosine_risk")
}

func BenchmarkTable2NeighborCount(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.NeighborCountComparison(); return err })
	var res *experiments.DesignTableResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.NeighborCountComparison()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Cells[0].Risk[exec.MetricElapsed], "k3_risk")
	b.ReportMetric(res.Cells[len(res.Cells)-1].Risk[exec.MetricElapsed], "k7_risk")
}

func BenchmarkTable3NeighborWeighting(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.NeighborWeighting(); return err })
	var res *experiments.DesignTableResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.NeighborWeighting()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Cells[0].Risk[exec.MetricElapsed], "equal_risk")
	b.ReportMetric(res.Cells[2].Risk[exec.MetricElapsed], "distance_risk")
}

func BenchmarkFig10Exp1Elapsed(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.Experiment1(); return err })
	var res *experiments.PredictionResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.Experiment1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Risk[exec.MetricElapsed], "risk")
	b.ReportMetric(res.Trimmed[exec.MetricElapsed], "risk_trimmed")
	b.ReportMetric(res.Within20[exec.MetricElapsed], "within20")
}

func BenchmarkFig11Exp1RecordsUsed(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.Experiment1(); return err })
	var res *experiments.PredictionResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.Experiment1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Risk[exec.MetricRecordsUsed], "risk")
}

func BenchmarkFig12Exp1MessageCount(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.Experiment1(); return err })
	var res *experiments.PredictionResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.Experiment1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Risk[exec.MetricMessageCount], "risk")
}

func BenchmarkFig13Exp2Balanced(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.Experiment2(); return err })
	var res *experiments.PredictionResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.Experiment2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Risk[exec.MetricElapsed], "risk")
	b.ReportMetric(res.Within20[exec.MetricElapsed], "within20")
}

func BenchmarkFig14Exp3TwoStep(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.Experiment3(); return err })
	var res *experiments.PredictionResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.Experiment3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Risk[exec.MetricElapsed], "risk")
	b.ReportMetric(res.Within20[exec.MetricElapsed], "within20")
}

func BenchmarkFig15Exp4Customer(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.Experiment4(); return err })
	var res *experiments.Experiment4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.Experiment4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.OverpredictedOneModel), "onemodel_10x_over")
	b.ReportMetric(float64(res.OverpredictedTwoStep), "twostep_10x_over")
}

func BenchmarkFig16ConfigSweep(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.ConfigSweep(); return err })
	var res *experiments.ConfigSweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.ConfigSweep()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[0].Risk[exec.MetricElapsed], "risk_4cpu")
	b.ReportMetric(res.Rows[3].Risk[exec.MetricElapsed], "risk_32cpu")
	b.ReportMetric(res.Rows[0].TotalDiskIOs, "ios_4cpu")
}

func BenchmarkFig17OptimizerCost(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.OptimizerCostBaseline(); return err })
	var res *experiments.OptimizerCostResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.OptimizerCostBaseline()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.CostAsPredictorRisk, "cost_risk")
	b.ReportMetric(res.KCCARisk, "kcca_risk")
}

// --- Ablations over DESIGN.md's called-out design choices ---------------

// ablationData builds one fixed train/test split for the ablation benches.
func ablationData(b *testing.B) (train, test []*dataset.Query) {
	b.Helper()
	l := lab(b)
	train, test, err := l.Exp1Split()
	if err != nil {
		b.Fatal(err)
	}
	return train, test
}

func ablationRisk(b *testing.B, opt core.Options, train, test []*dataset.Query) float64 {
	b.Helper()
	p, err := core.Train(train, opt)
	if err != nil {
		b.Fatal(err)
	}
	pred, act, err := experiments.Evaluate(p, test)
	if err != nil {
		b.Fatal(err)
	}
	risk := 0.0
	mean := 0.0
	for _, a := range act[exec.MetricElapsed] {
		mean += a
	}
	mean /= float64(len(act[exec.MetricElapsed]))
	var sse, sst float64
	for i, a := range act[exec.MetricElapsed] {
		d := pred[exec.MetricElapsed][i] - a
		sse += d * d
		sst += (a - mean) * (a - mean)
	}
	risk = 1 - sse/sst
	return risk
}

// BenchmarkAblationKPCARank sweeps the kernel-PCA reduction rank.
func BenchmarkAblationKPCARank(b *testing.B) {
	for _, rank := range []int{10, 20, 40, 80} {
		b.Run(benchName("rank", rank), func(b *testing.B) {
			train, test := ablationData(b)
			opt := core.DefaultOptions()
			opt.KCCA.Rank = rank
			var risk float64
			for i := 0; i < b.N; i++ {
				risk = ablationRisk(b, opt, train, test)
			}
			b.ReportMetric(risk, "risk")
		})
	}
}

// BenchmarkAblationKernelScale sweeps the kernel scale fraction around the
// paper's 0.1 query-side setting.
func BenchmarkAblationKernelScale(b *testing.B) {
	for _, milli := range []int{25, 100, 400, 1600} {
		b.Run(benchName("taufrac_milli", milli), func(b *testing.B) {
			train, test := ablationData(b)
			opt := core.DefaultOptions()
			opt.KCCA.TauFracX = float64(milli) / 1000
			var risk float64
			for i := 0; i < b.N; i++ {
				risk = ablationRisk(b, opt, train, test)
			}
			b.ReportMetric(risk, "risk")
		})
	}
}

// BenchmarkAblationRegularization sweeps the CCA ridge regularization.
func BenchmarkAblationRegularization(b *testing.B) {
	for _, exp := range []int{-5, -3, -1} {
		b.Run(benchName("reg_1e", exp), func(b *testing.B) {
			train, test := ablationData(b)
			opt := core.DefaultOptions()
			reg := 1.0
			for i := 0; i > exp; i-- {
				reg /= 10
			}
			opt.KCCA.Reg = reg
			var risk float64
			for i := 0; i < b.N; i++ {
				risk = ablationRisk(b, opt, train, test)
			}
			b.ReportMetric(risk, "risk")
		})
	}
}

// BenchmarkTrainingScaling measures training time versus training set size
// (the paper: cubic in the number of data points).
func BenchmarkTrainingScaling(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024} {
		b.Run(benchName("n", n), func(b *testing.B) {
			train, _ := ablationData(b)
			if n > len(train) {
				b.Skipf("only %d training queries", len(train))
			}
			sub := train[:n]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(sub, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictionLatency measures single-query prediction (the paper:
// "prediction of a single query can be done in under a second").
func BenchmarkPredictionLatency(b *testing.B) {
	l := lab(b)
	model, _, test, err := l.Exp1Model()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.PredictQuery(test[i%len(test)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks -----------------------------------------

func BenchmarkPlanningThroughput(b *testing.B) {
	schema := catalog.TPCDS(1)
	tpls := workload.TPCDSTemplates()
	r := statutil.NewRNG(1, "bench")
	cfg := optimizer.DefaultConfig(4)
	queries := make([]*sqlgen.Query, 0, 64)
	for i := 0; i < 64; i++ {
		tpl := tpls[i%len(tpls)]
		queries = append(queries, tpl.Gen(r))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := optimizer.BuildPlan(q, schema, 1, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecutionSimulator(b *testing.B) {
	schema := catalog.TPCDS(1)
	q, err := sqlparse.Parse("SELECT i_category, SUM(ss_ext_sales_price), COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk BETWEEN 2451000 AND 2451100 GROUP BY i_category ORDER BY i_category")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := optimizer.BuildPlan(q, schema, 1, optimizer.DefaultConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	m := exec.Research4()
	noise := statutil.NewRNG(1, "benchnoise")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.Execute(plan, m, noise)
	}
}

func BenchmarkSQLParse(b *testing.B) {
	sql := "SELECT i_category, SUM(ss_ext_sales_price), COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk BETWEEN 2451000 AND 2451100 AND i_category = 'v3' GROUP BY i_category ORDER BY i_category LIMIT 100"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// serialParallel runs the body once pinned to one worker and once at the
// default width, as /serial and /parallel sub-benchmarks. The equivalence
// tests prove the two paths produce identical results; these measure the
// spread.
func serialParallel(b *testing.B, body func(b *testing.B)) {
	b.Run("serial", func(b *testing.B) {
		defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
		body(b)
	})
	b.Run("parallel", func(b *testing.B) {
		defer parallel.SetMaxProcs(parallel.SetMaxProcs(0))
		body(b)
	})
}

func BenchmarkKernelMatrix(b *testing.B) {
	for _, n := range []int{200, 1000, 4000} {
		r := statutil.NewRNG(2, "kmat")
		x := linalg.NewMatrix(n, 24)
		for i := range x.Data {
			x.Data[i] = r.NormFloat64()
		}
		tau := kernels.ScaleHeuristic(x, 0.1)
		b.Run(benchName("n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.Matrix(x, tau)
			}
		})
	}
}

func BenchmarkPredictBatch(b *testing.B) {
	l := lab(b)
	model, _, test, err := l.Exp1Model()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{200, 1000, 4000} {
		batch := make([]*dataset.Query, n)
		for i := range batch {
			batch[i] = test[i%len(test)]
		}
		b.Run(benchName("n", n), func(b *testing.B) {
			serialParallel(b, func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := model.PredictBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func BenchmarkSymEig256(b *testing.B) {
	r := statutil.NewRNG(3, "eig")
	x := linalg.NewMatrix(300, 256)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	spd := x.TMul(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.SymEig(spd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKCCATrain256(b *testing.B) {
	r := statutil.NewRNG(4, "kcca")
	x := linalg.NewMatrix(256, 24)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64() * 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kcca.Train(x, kcca.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	s := prefix + "="
	if neg {
		s += "-"
	}
	return s + string(buf[i:])
}

func BenchmarkSec7c2FeatureInfluence(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.FeatureInfluences(); return err })
	var res *experiments.InfluenceResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.FeatureInfluences()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.JoinFeatureRank), "join_feature_rank")
}

func BenchmarkSec7c4WorkloadDrift(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.WorkloadDrift(); return err })
	var res *experiments.DriftResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.WorkloadDrift()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.StaticWithin20, "static_within20")
	b.ReportMetric(res.SlidingWithin20, "sliding_within20")
}

func BenchmarkContentionWhatIf(b *testing.B) {
	l := lab(b)
	warm(b, func() error { _, err := l.ContentionWhatIf(); return err })
	var res *experiments.ContentionResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = l.ContentionWhatIf()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[0].RelativeError, "relerr_1slot")
	b.ReportMetric(res.Rows[3].RelativeError, "relerr_8slot")
}
