package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/testutil"
)

// TestReleasedWorkspaceIsPoisoned: once a miss hands its workspace back,
// the parse tree, the plan tree, the table list and the planned query it
// carved read poison — so a reader that outlived the release would serve
// garbage the equivalence tests below catch, not a stale right answer.
func TestReleasedWorkspaceIsPoisoned(t *testing.T) {
	planner := optimizer.NewPlanner(catalog.TPCDS(1), fixDataSeed, optimizer.DefaultConfig(exec.Research4().Processors))
	sql := "SELECT i_category, COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk AND i_current_price > 50 " +
		"AND ss_item_sk IN (SELECT i_item_sk FROM item WHERE i_category = 'v3') GROUP BY i_category"
	ws := dataset.GetWorkspace()
	q, err := planSQL(planner, sql, ws)
	if err != nil {
		t.Fatal(err)
	}
	if q != &ws.Query || q.Workspace != ws {
		t.Fatal("a workspace run's query is not the workspace's own")
	}
	ast, root, tables := q.AST, q.Plan.Root, q.Plan.Tables
	from, sel, joins, where, sub := ast.From, ast.Select, ast.Joins, ast.Where, ast.Where[1].Subquery
	var nodes []*optimizer.Node
	root.Walk(func(n *optimizer.Node) { nodes = append(nodes, n) })
	ws.Release()

	poisoned := func(name string) bool { return strings.HasPrefix(name, "\x00") }
	if ast.Limit != -1 || ast.From != nil || sub.Limit != -1 || sub.Where != nil {
		t.Errorf("released query nodes still read %+v and %+v", *ast, *sub)
	}
	if !poisoned(from[0].Table) || !poisoned(sel[0].Col.Column) || !poisoned(joins[0].Left.Column) ||
		!math.IsNaN(where[0].Value.Value) || where[1].Subquery != nil {
		t.Errorf("released clauses still read %+v %+v %+v %+v", from, sel, joins, where)
	}
	for _, n := range nodes {
		if !math.IsNaN(n.EstRows) || !math.IsNaN(n.ActRows) || !poisoned(n.Table) || n.Children != nil {
			t.Fatalf("released plan node still reads %+v", *n)
		}
	}
	for _, name := range tables {
		if !poisoned(name) {
			t.Fatalf("released table list still reads %q", tables)
		}
	}
	if q.ID != -1 || q.SQL != "" || q.Plan != nil {
		t.Errorf("released query still reads %+v", *q)
	}
}

// TestChurnedPlanCacheMatchesPassthrough: a plan cache far smaller than its
// working set (64 entries over 512 statements), missed by four goroutines
// at once, so workspaces are released and carved again while other
// requests are in flight, answers every request — misses and hits — byte
// for byte like the passthrough, which plans each statement exactly sized
// and releases nothing.
func TestChurnedPlanCacheMatchesPassthrough(t *testing.T) {
	const statements, stride, workers, rounds = 512, 8, 4, 2
	sqls := testutil.DistinctStockSQL(t, statements)
	// Request i asks for statements 8i to 8i+15: the half its predecessor
	// planned a moment ago hits, the rest misses.
	bodies := make([]string, statements/stride)
	for i := range bodies {
		var req api.PredictRequest
		for k := 0; k < 2*stride; k++ {
			req.Queries = append(req.Queries, api.QueryInput{SQL: sqls[(i*stride+k)%statements]})
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = string(raw)
	}
	server := func(entries int) http.Handler {
		cfg := baseConfig(t)
		cfg.Predictor = freshPredictor(t, 0, 120, false)
		cfg.Plans = NewPlanner(catalog.TPCDS(1), fixDataSeed, exec.Research4(), entries)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s.Handler()
	}
	serveOne := func(h http.Handler, body string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}

	passthrough := server(-1)
	want := make([]string, len(bodies))
	for i, body := range bodies {
		want[i] = serveOne(passthrough, body)
	}

	churned, misses := server(64), obs.GetCounter("core.plancache.misses")
	before := misses.Value()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds*len(bodies); k++ {
				i := (w*len(bodies)/workers + k) % len(bodies)
				if got := serveOne(churned, bodies[i]); got != want[i] {
					at := 0
					for at < min(len(got), len(want[i])) && got[at] == want[i][at] {
						at++
					}
					lo := max(at-80, 0)
					t.Errorf("worker %d, request %d: body diverged from the passthrough's at byte %d\nchurned:     …%.160s\npassthrough: …%.160s",
						w, i, at, got[lo:], want[i][lo:])
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := misses.Value() - before; n < statements*workers && !t.Failed() {
		t.Fatalf("%d plan-cache misses over %d statements × %d workers × %d rounds: the cache is not churning", n, statements, workers, rounds)
	}
}

// TestHostileStatementLeavesNoOversizedWorkspace: a statement 10,000
// subqueries deep plans through the cache, and the megabytes of workspace
// its trees grew are dropped, not pooled; a stock statement's workspace is.
func TestHostileStatementLeavesNoOversizedWorkspace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool's next Get is its last Put
	plans := NewPlanner(catalog.TPCDS(1), fixDataSeed, exec.Research4(), 64)
	if _, err := plans.Shared(testutil.DistinctStockSQL(t, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if ws := dataset.GetWorkspace(); ws.Bytes() == 0 && !testutil.RaceEnabled { // -race drops a share of pool puts
		t.Error("a stock statement's workspace was not pooled")
	} else {
		ws.Release()
	}
	hostile := testutil.NestedExistsSQL(10000)
	q, err := plans.Shared(hostile)
	if err != nil {
		t.Fatal(err)
	}
	if q.AST != nil || q.Plan.Root != nil || q.Workspace != nil {
		t.Fatal("the cache's entry kept a tree or its workspace")
	}
	for i := 0; i < 4; i++ {
		if ws := dataset.GetWorkspace(); ws.Bytes() > dataset.MaxPooledWorkspace {
			t.Fatalf("the pool holds a %d B workspace, cap %d", ws.Bytes(), dataset.MaxPooledWorkspace)
		}
	}
}
