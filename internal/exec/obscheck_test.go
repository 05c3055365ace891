package exec

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/optimizer"
)

func TestSimMetricsRecorded(t *testing.T) {
	before := obs.GetCounter("exec.simulate.queries").Value()
	if _, err := SimulateConcurrent([]float64{0, 1}, []float64{2, 2}, 0, 1); err != nil {
		t.Fatal(err)
	}
	after := obs.GetCounter("exec.simulate.queries").Value()
	if after-before != 2 {
		t.Fatalf("sim queries delta = %d", after-before)
	}
	if obs.GetHistogram("exec.simulate.makespan_sec").Count() == 0 {
		t.Fatal("makespan not observed")
	}
	s := obs.Take()
	if _, ok := s.Counters["exec.simulate.queries"]; !ok {
		t.Fatal("snapshot missing simulator counter")
	}
}

// TestExecuteAccountsOperators: with no switch set, every executed plan
// node adds one to its operator's exec.op.<operator>.nodes and its cost to
// exec.op.<operator>.seconds, whose sum is the plan's elapsed time less the
// fixed startup.
func TestExecuteAccountsOperators(t *testing.T) {
	m := Research4()
	for name, sql := range map[string]string{
		"scan":     "SELECT COUNT(*) FROM store_sales WHERE ss_quantity BETWEEN 1 AND 50",
		"join":     "SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk",
		"group by": "SELECT ss_item_sk, SUM(ss_quantity) FROM store_sales GROUP BY ss_item_sk",
	} {
		t.Run(name, func(t *testing.T) {
			p := planFor(t, sql, m)
			nodes := map[optimizer.OpType]int64{}
			p.Root.Walk(func(n *optimizer.Node) { nodes[n.Op]++ })
			var countBefore [optimizer.NumOpTypes]int64
			var secondsBefore [optimizer.NumOpTypes]float64
			for i := range countBefore {
				countBefore[i], secondsBefore[i] = opNodeCount[i].Value(), opCostSec[i].Value()
			}
			met := Execute(p, m, nil)
			var seconds float64
			for _, op := range optimizer.AllOpTypes() {
				name := "exec.op." + op.String()
				if got := obs.GetCounter(name+".nodes").Value() - countBefore[op]; got != nodes[op] {
					t.Errorf("%s.nodes moved by %d, the plan has %d such nodes", name, got, nodes[op])
				}
				seconds += obs.GetFloatTotal(name+".seconds").Value() - secondsBefore[op]
			}
			c := m.costs()
			want := met.ElapsedSec - c.StartupSec - c.StartupPerProc*float64(m.Processors)
			if want <= 0 || math.Abs(seconds-want) > 1e-9*want {
				t.Errorf("operator seconds add up to %v, want the elapsed %v less startup: %v", seconds, met.ElapsedSec, want)
			}
		})
	}
}
