// Package dataset assembles labeled query datasets: it instantiates
// workload templates, plans each query with the optimizer, executes the
// plan on a simulated machine, and records the SQL text, plan, performance
// metrics, and runtime category. Datasets feed the feature extractors and
// the experiments.
package dataset

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/sqlgen"
	"repro/internal/sqlparse"
	"repro/internal/statutil"
	"repro/internal/workload"
)

// Query is one executed query with everything the experiments need.
type Query struct {
	ID       int
	Template string
	Class    string
	SQL      string
	// AST is the parsed statement. A query from the serving plan cache
	// (core.PlanCache) carries none: nothing after planning reads it.
	AST *sqlgen.Query
	// Plan is the optimizer's plan. A query from the serving plan cache
	// carries a cost-only plan: Root nil, Cost set.
	Plan     *optimizer.Plan
	Metrics  exec.Metrics
	Category workload.Category
	// PlanFeat, when non-nil, memoizes features.PlanVector of the planned
	// tree — the plan feature vector is a pure function of the plan, so it
	// can be computed once and shared (and outlives a dropped tree). The
	// slice is read-only: consumers must copy before mutating, and shallow
	// Query copies (the plan cache's hit path) share it safely. Nil means
	// "not yet extracted", never "no features".
	PlanFeat []float64
	// Memo, when non-nil, is what the serving plan cache (core.PlanCache)
	// derived once for its entry of this SQL; every copy the entry hands out
	// shares it. Whoever sets PlanFeat or Plan on such a copy must set Memo
	// to nil. It is never persisted: snapshots, the WAL and dataset files
	// hold the SQL and re-plan it.
	Memo *PlanMemo
	// Workspace, when non-nil, is the storage AST and Plan were carved
	// from, and this Query itself lives in it. Whoever drops the trees
	// releases it once nothing reads them — core.PlanCache does, on a miss,
	// after reading the feature vector and the cost.
	Workspace *Workspace
}

// Workspace is the storage of one SQL → plan run whose trees die with it:
// the parse tree, the plan tree and the planned Query. A released
// workspace goes back to a pool for the next run, so a plan-cache miss
// allocates only what the cache keeps.
type Workspace struct {
	AST   sqlparse.Arena
	Plan  optimizer.Arena
	Query Query
}

// MaxPooledWorkspace is the most storage a released workspace may keep and
// still be pooled: a stock statement's trees take a few kilobytes, a hostile
// one (thousands of nested subqueries) megabytes. It bounds only what the
// pool retains; a statement of any size still plans.
const MaxPooledWorkspace = 64 << 10

var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace returns a workspace from the pool, or a new one.
func GetWorkspace() *Workspace { return workspaces.Get().(*Workspace) }

// Release poisons everything carved from w and pools it, unless it grew
// past MaxPooledWorkspace, in which case it is dropped. Nothing carved from
// w may be read afterwards. A nil w is a no-op.
func (w *Workspace) Release() {
	if w == nil || w.Bytes() > MaxPooledWorkspace {
		return
	}
	w.AST.Reset()
	w.Plan.Reset()
	w.Query = Query{ID: -1}
	workspaces.Put(w)
}

// Bytes reports the storage w keeps between runs.
func (w *Workspace) Bytes() int { return w.AST.Bytes() + w.Plan.Bytes() }

// PlanMemo is what a plan-cache entry computes once from its planned query
// so that a repeat of the SQL costs a lookup instead of the work again.
type PlanMemo struct {
	// Fingerprint is core.Fingerprint(PlanFeat).
	Fingerprint uint64
	// Cost holds the JSON number of Plan.Cost once the first response that
	// carries it is encoded (an api.Fragment): racing fillers store equal
	// bytes, and the stored slice is never written again.
	Cost atomic.Pointer[[]byte]
}

// Dataset is a set of queries executed on one machine configuration
// against one schema.
type Dataset struct {
	SchemaName string
	Machine    exec.Machine
	Queries    []*Query
}

// GenConfig controls dataset generation.
type GenConfig struct {
	// Seed drives template parameter draws and execution noise. The data
	// realization seed (optimizer surprises) is DataSeed.
	Seed     int64
	DataSeed int64
	Machine  exec.Machine
	Schema   *catalog.Schema
	// Templates to instantiate, visited round-robin.
	Templates []workload.Template
	// Count is the total number of query instances to generate.
	Count int
}

// Generate builds a dataset by instantiating Count queries round-robin
// from the templates, planning each against the schema, and executing it
// on the machine.
func Generate(cfg GenConfig) (*Dataset, error) {
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("dataset: nonpositive count %d", cfg.Count)
	}
	if len(cfg.Templates) == 0 {
		return nil, fmt.Errorf("dataset: no templates")
	}
	if cfg.Schema == nil {
		return nil, fmt.Errorf("dataset: nil schema")
	}
	ds := &Dataset{SchemaName: cfg.Schema.Name, Machine: cfg.Machine}
	planner := optimizer.NewPlanner(cfg.Schema, cfg.DataSeed, optimizer.DefaultConfig(cfg.Machine.Processors))
	paramRNG := make([]*statutil.RNG, len(cfg.Templates))
	for i, tpl := range cfg.Templates {
		paramRNG[i] = statutil.NewRNG(cfg.Seed, "params:"+tpl.Name)
	}
	noise := statutil.NewRNG(cfg.Seed, "execnoise")
	for i := 0; i < cfg.Count; i++ {
		ti := i % len(cfg.Templates)
		tpl := cfg.Templates[ti]
		ast := tpl.Gen(paramRNG[ti])
		plan, err := planner.Plan(ast)
		if err != nil {
			return nil, fmt.Errorf("dataset: planning %s instance %d: %w", tpl.Name, i, err)
		}
		met := exec.Execute(plan, cfg.Machine, noise)
		ds.Queries = append(ds.Queries, &Query{
			ID:       i,
			Template: tpl.Name,
			Class:    tpl.Class,
			SQL:      ast.Render(),
			AST:      ast,
			Plan:     plan,
			Metrics:  met,
			Category: workload.Categorize(met.ElapsedSec),
		})
	}
	return ds, nil
}

// ReExecute re-plans and re-executes every query of d on a different
// machine configuration (plans legitimately differ across configurations,
// as the paper observed on the 32-node system). The data realization seed
// must match the one used at generation time.
func ReExecute(d *Dataset, schema *catalog.Schema, dataSeed int64, m exec.Machine, noiseSeed int64) (*Dataset, error) {
	out := &Dataset{SchemaName: d.SchemaName, Machine: m}
	planner := optimizer.NewPlanner(schema, dataSeed, optimizer.DefaultConfig(m.Processors))
	noise := statutil.NewRNG(noiseSeed, "execnoise:"+m.Name)
	for _, q := range d.Queries {
		plan, err := planner.Plan(q.AST)
		if err != nil {
			return nil, fmt.Errorf("dataset: re-planning query %d: %w", q.ID, err)
		}
		met := exec.Execute(plan, m, noise)
		out.Queries = append(out.Queries, &Query{
			ID:       q.ID,
			Template: q.Template,
			Class:    q.Class,
			SQL:      q.SQL,
			AST:      q.AST,
			Plan:     plan,
			Metrics:  met,
			Category: workload.Categorize(met.ElapsedSec),
		})
	}
	return out, nil
}

// ByCategory partitions the dataset's queries by runtime category.
func (d *Dataset) ByCategory() map[workload.Category][]*Query {
	out := map[workload.Category][]*Query{}
	for _, q := range d.Queries {
		out[q.Category] = append(out[q.Category], q)
	}
	return out
}

// CategoryCounts returns the number of queries in each category.
func (d *Dataset) CategoryCounts() map[workload.Category]int {
	out := map[workload.Category]int{}
	for _, q := range d.Queries {
		out[q.Category]++
	}
	return out
}

// Subset returns a dataset holding the given queries.
func (d *Dataset) Subset(queries []*Query) *Dataset {
	return &Dataset{SchemaName: d.SchemaName, Machine: d.Machine, Queries: queries}
}

// SampleMix draws, without replacement, the requested number of feathers,
// golf balls, and bowling balls (wrecking balls count as bowling balls for
// sampling, mirroring the paper's pools). It returns an error if the
// dataset cannot supply the mix.
func (d *Dataset) SampleMix(r *statutil.RNG, feathers, golf, bowling int) ([]*Query, error) {
	byCat := d.ByCategory()
	pools := [][]*Query{
		byCat[workload.Feather],
		byCat[workload.GolfBall],
		append(byCat[workload.BowlingBall], byCat[workload.WreckingBall]...),
	}
	wants := []int{feathers, golf, bowling}
	names := []string{"feathers", "golf balls", "bowling balls"}
	var out []*Query
	for i, want := range wants {
		if want > len(pools[i]) {
			return nil, fmt.Errorf("dataset: need %d %s, pool has %d", want, names[i], len(pools[i]))
		}
		idx := r.SampleInts(len(pools[i]), want)
		for _, j := range idx {
			out = append(out, pools[i][j])
		}
	}
	return out, nil
}

// Split removes the queries in test (by ID) from d and returns the
// remaining training queries.
func (d *Dataset) Split(test []*Query) (train []*Query) {
	inTest := map[int]bool{}
	for _, q := range test {
		inTest[q.ID] = true
	}
	for _, q := range d.Queries {
		if !inTest[q.ID] {
			train = append(train, q)
		}
	}
	return train
}
