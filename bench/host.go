package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The shared VM this benchmark runs on changes speed under it: over an hour
// the same daemon work cost between 0.17 and 0.29 ms of CPU per query, in
// regimes lasting minutes, while nothing in the repository changed. Longer
// runs and medians do not help against that, so the harness measures the
// host alongside the daemon. A reference goroutine, locked to its own
// thread, runs a fixed burst of work every refEvery through the measured
// phase — a JSON round trip, a string-keyed map, a sweep of math.Exp:
// roughly the daemon's mix of allocation, pointer chasing and floating
// point, and nothing from this repository, so no change here can move it.
// The thread's on-CPU time per burst (from schedstat, so time spent waiting
// for a core does not count) is the host's speed during exactly the
// seconds being measured; CPU-bound metrics are reported scaled to
// refNominalUS. In the probing above the raw CPU per query spread over
// ±12% from run to run and the scaled one over ±4%.
const (
	refEvery     = 40 * time.Millisecond
	refNominalUS = 600 // a burst on the development VM in its usual state
)

type refRow struct {
	SQL     string     `json:"sql"`
	Metrics [6]float64 `json:"metrics"`
}

// refBurst is the fixed work. It returns a value computed from all of it so
// that none can be optimized away.
func refBurst(doc []byte, vals []float64) float64 {
	var rows []refRow
	json.Unmarshal(doc, &rows) // doc is the marshalled form of rows: cannot fail
	out, _ := json.Marshal(rows)
	index := make(map[string]int, len(rows))
	for i := range rows {
		index[rows[i].SQL] = i
	}
	sum := float64(len(out))
	for i := range vals {
		vals[i] = math.Exp(-float64(i%977)/977) + float64(index[rows[i%len(rows)].SQL])
		sum += vals[i]
	}
	return sum
}

// threadCPU is the calling thread's on-CPU time; the caller must have
// locked its goroutine to the thread.
func threadCPU() (time.Duration, error) {
	data, err := os.ReadFile("/proc/thread-self/schedstat")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0, fmt.Errorf("/proc/thread-self/schedstat: empty")
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	return time.Duration(ns), err
}

// reference is the running reference goroutine.
type reference struct {
	stop   chan struct{}
	result chan refResult
}

type refResult struct {
	us  float64
	err error
}

func startReference() *reference {
	r := &reference{stop: make(chan struct{}), result: make(chan refResult, 1)}
	rows := make([]refRow, 32)
	for i := range rows {
		rows[i].SQL = fmt.Sprintf("SELECT c%d FROM t WHERE k BETWEEN %d AND %d", i, i*7919, i*104729)
		for j := range rows[i].Metrics {
			rows[i].Metrics[j] = float64(i*j) * 1.000001e3
		}
	}
	doc, _ := json.Marshal(rows) // plain structs always marshal
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		vals := make([]float64, 8192)
		refBurst(doc, vals) // the first burst pays for growing the heap
		before, err := threadCPU()
		bursts := 0
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for err == nil {
			refBurst(doc, vals)
			bursts++
			select {
			case <-tick.C:
				continue
			case <-r.stop:
			}
			break
		}
		after, aerr := threadCPU()
		if err == nil {
			err = aerr
		}
		r.result <- refResult{float64(after-before) / 1e3 / float64(max(bursts, 1)), err}
	}()
	return r
}

// Stop ends the reference and returns the on-CPU µs one burst took.
func (r *reference) Stop() (float64, error) {
	close(r.stop)
	res := <-r.result
	return res.us, res.err
}
