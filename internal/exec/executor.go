package exec

import (
	"math"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/statutil"
)

// Per-operator simulated cost totals ("exec.op.<operator>.seconds") and
// node counts.
var (
	opCostSec   [optimizer.NumOpTypes]*obs.FloatTotal
	opNodeCount [optimizer.NumOpTypes]*obs.Counter
	execQueries = obs.GetCounter("exec.executed_queries")
)

func init() {
	for i := range opCostSec {
		name := optimizer.OpType(i).String()
		opCostSec[i] = obs.GetFloatTotal("exec.op." + name + ".seconds")
		opNodeCount[i] = obs.GetCounter("exec.op." + name + ".nodes")
	}
}

// Execute simulates running the plan on the machine and returns the
// measured performance metrics. The noise stream models run-to-run
// measurement variation in elapsed time; pass nil for a noiseless run.
// All other metrics are deterministic functions of the plan's true
// cardinalities and the machine configuration.
func Execute(p *optimizer.Plan, m Machine, noise *statutil.RNG) Metrics {
	c := m.costs()
	procs := float64(m.Processors)
	if procs < 1 {
		procs = 1
	}
	pageBytes := float64(c.PageSizeKB) * 1024

	execQueries.Inc()

	var met Metrics
	cacheLeft := m.BufferPoolBytes()
	cached := map[string]bool{}
	elapsed := c.StartupSec + c.StartupPerProc*procs

	// chargeNet accounts for moving bytes across the interconnect and
	// returns the network seconds. senders is the number of processors
	// transferring in parallel (1 for the serial merge to the coordinator).
	chargeNet := func(rows, bytes, senders float64) float64 {
		if rows <= 0 {
			return 0
		}
		if senders < 1 {
			senders = 1
		}
		msgs := math.Ceil(rows/float64(c.RowsPerMessage)) + procs
		met.MessageCount += msgs
		met.MessageBytes += bytes
		return bytes/(c.NetMBPerSec*1e6*senders) + msgs*c.MsgOverheadSec/senders
	}
	// chargeIO accounts for disk page transfers and returns the I/O
	// seconds, spreading the transfer across the machine's disks.
	chargeIO := func(bytes float64) float64 {
		if bytes <= 0 {
			return 0
		}
		pages := math.Ceil(bytes / pageBytes)
		met.DiskIOs += pages
		return bytes / (c.DiskMBPerSec * 1e6 * float64(m.Disks))
	}

	p.Root.Walk(func(n *optimizer.Node) {
		var cpu, io, net float64
		switch n.Op {
		case optimizer.OpFileScan:
			met.RecordsAccessed += n.ActRowsIn
			met.RecordsUsed += n.ActRows
			cpu = n.ActRowsIn * c.ScanPerRow / procs
			bytes := n.ActRowsIn * float64(n.Width)
			if cached[n.Table] {
				// Already resident from an earlier scan in this query.
			} else if bytes <= cacheLeft {
				cached[n.Table] = true
				cacheLeft -= bytes
				// First touch still reads from disk into the pool? No:
				// the steady-state model assumes hot tables are resident
				// from prior workload activity, matching the paper's
				// observation that small queries did no I/O at all.
			} else {
				io = chargeIO(bytes)
			}
		case optimizer.OpNestedJoin:
			outer, inner := n.Children[0], n.Children[1]
			if n.Pairwise {
				pairs := outer.ActRows * inner.ActRows
				cpu = pairs * c.PairPerPair / procs
			} else {
				cpu = (outer.ActRows*c.ProbePerRow + inner.ActRows*c.HashPerRow) / procs
			}
			cpu += n.ActRows * c.MovePerRow / procs // result assembly
		case optimizer.OpHashJoin:
			cpu = (n.ActRowsIn*c.HashPerRow + n.ActRows*c.MovePerRow) / procs
		case optimizer.OpSemiJoin:
			cpu = n.ActRowsIn * c.HashPerRow / procs
		case optimizer.OpSort, optimizer.OpTopN:
			rows := n.ActRowsIn
			if rows > 1 {
				cpu = rows * math.Log2(rows) * c.SortPerRowLog / procs
			}
			if n.Op == optimizer.OpSort {
				// External sort: spill runs to disk when the per-CPU
				// share exceeds the sort memory budget.
				bytes := rows * float64(n.Width)
				budget := float64(m.MemPerCPUMB) * 1e6 * c.SpillMemFrac * procs
				if bytes > budget {
					io = chargeIO(2 * bytes) // write runs + read back
				}
			}
		case optimizer.OpHashGroupBy, optimizer.OpScalarAgg:
			cpu = n.ActRowsIn * c.AggPerRow / procs
		case optimizer.OpPartition:
			rows := n.ActRowsIn
			bytes := rows * float64(n.Width)
			if n.Broadcast {
				// Every row is replicated to all processors.
				moved := bytes * (procs - 1)
				if procs == 1 {
					moved = 0
				}
				net = chargeNet(rows*(procs-1), moved, procs)
			} else {
				// Hash repartitioning: a (P-1)/P fraction of rows changes
				// processors.
				frac := (procs - 1) / procs
				net = chargeNet(rows*frac, bytes*frac, procs)
			}
			cpu = rows * c.MovePerRow / procs
		case optimizer.OpExchange:
			// Merge to the coordinator: all rows cross to one node.
			rows := n.ActRowsIn
			net = chargeNet(rows, rows*float64(n.Width), 1)
			cpu = rows * c.MovePerRow // coordinator-side, serial
		case optimizer.OpSplit, optimizer.OpRoot:
			cpu = n.ActRowsIn * 2e-8 / procs
		}
		// Within one operator CPU, I/O, and network overlap; operators
		// themselves run largely in sequence along the pipeline.
		cost := math.Max(cpu, math.Max(io, net))
		elapsed += cost
		if int(n.Op) >= 0 && int(n.Op) < optimizer.NumOpTypes {
			opCostSec[n.Op].Add(cost)
			opNodeCount[n.Op].Inc()
		}
	})

	if noise != nil {
		elapsed *= noise.NoiseFactor(c.NoiseSigma)
	}
	met.ElapsedSec = elapsed
	return met
}
