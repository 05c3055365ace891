package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/pkg/qpredictclient"
)

// conn is one connection to the daemon and what must hold along it: model
// generations never go backwards.
type conn struct {
	client  *qpredictclient.Client
	lastGen int64
}

// dial returns n clients that each own exactly one connection, so the
// number of requests in flight is bounded by n. Retries are off: a 429 is
// the daemon shedding load and counts as a failure.
func dial(url string, n int) []*conn {
	conns := make([]*conn, n)
	for i := range conns {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		conns[i] = &conn{client: qpredictclient.New(url, &qpredictclient.Options{
			MaxRetries: -1,
			HTTPClient: &http.Client{Transport: tr, Timeout: 30 * time.Second},
			UserAgent:  "qpredict-bench/1",
		})}
	}
	return conns
}

// sample is the outcome of one request.
type sample struct {
	// Lat runs from the due time (open loop) or the send (closed loop) to
	// the verified response, so a stall is charged to every request that
	// was due while it lasted.
	Lat time.Duration
	// Late is the generator's own lateness: how long after the request was
	// both due and had a free connection it was actually sent.
	Late time.Duration
	Done time.Time
	Gen  int64 // highest generation in the response
	Err  error
}

// send issues one request on c and verifies the response.
func (c *conn) send(ctx context.Context, r *request) (int64, error) {
	if r.Obs != nil {
		resp, err := c.client.Observe(ctx, r.Obs...)
		if err != nil {
			return 0, err
		}
		if resp.Accepted != len(r.Obs) {
			return 0, fmt.Errorf("observe accepted %d of %d", resp.Accepted, len(r.Obs))
		}
		return resp.Generation, nil
	}
	resp, err := c.client.Predict(ctx, r.SQLs...)
	if err != nil {
		return 0, err
	}
	return c.verify(resp, len(r.SQLs))
}

// verify checks a predict response: one result per query, no per-query
// error, six finite non-negative metrics, and a generation no lower than
// any this connection has already seen.
func (c *conn) verify(resp *api.PredictResponse, n int) (int64, error) {
	if len(resp.Results) != n {
		return 0, fmt.Errorf("%d results for %d queries", len(resp.Results), n)
	}
	gen := c.lastGen
	for i := range resp.Results {
		r := &resp.Results[i]
		if r.Error != nil {
			return 0, fmt.Errorf("result %d: %s: %s", i, r.Error.Code, r.Error.Message)
		}
		if r.Metrics == nil {
			return 0, fmt.Errorf("result %d: no metrics", i)
		}
		m := r.Metrics
		for _, v := range [6]float64{m.ElapsedSec, m.RecordsAccessed, m.RecordsUsed, m.DiskIOs, m.MessageCount, m.MessageBytes} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return 0, fmt.Errorf("result %d: metric %v is not finite and non-negative", i, v)
			}
		}
		if r.Generation < c.lastGen {
			return 0, fmt.Errorf("result %d: generation %d after %d on one connection", i, r.Generation, c.lastGen)
		}
		if r.Generation > gen {
			gen = r.Generation
		}
	}
	c.lastGen = gen
	return gen, nil
}

// drive sends reqs in order over the fixed connection set and returns one
// sample per request. Each connection takes the next unsent request, waits
// until it is due (open loop), sends it and verifies the answer; a request
// due while every connection is busy therefore waits, and is still timed
// from when it was due. In a closed loop nothing is ever due: a connection
// sends its next request as soon as the previous one is answered.
func drive(ctx context.Context, conns []*conn, reqs []request, open bool, start time.Time) []sample {
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r, s := &reqs[i], &samples[i]
				from := time.Now()
				if open {
					due := start.Add(r.Due)
					if wait := due.Sub(from); wait > 0 {
						time.Sleep(wait)
						from = due
					}
					sent := time.Now()
					s.Late = sent.Sub(from)
					from = due
				}
				s.Gen, s.Err = c.send(ctx, r)
				s.Done = time.Now()
				s.Lat = s.Done.Sub(from)
			}
		}(c)
	}
	wg.Wait()
	return samples
}

// tally is the sent/succeeded/failed count of one phase.
type tally struct {
	Sent, OK, Failed int
	FirstErr         error
}

func (t *tally) add(samples []sample) {
	for i := range samples {
		t.Sent++
		if err := samples[i].Err; err != nil {
			t.fail(err)
		} else {
			t.OK++
		}
	}
}

func (t *tally) fail(err error) {
	t.Failed++
	if t.FirstErr == nil {
		t.FirstErr = err
	}
}

func (t tally) String() string {
	s := fmt.Sprintf("sent %d ok %d failed %d", t.Sent, t.OK, t.Failed)
	if t.FirstErr != nil {
		s += fmt.Sprintf(" (first: %v)", t.FirstErr)
	}
	return s
}
