package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

// fakeDaemon answers /v1/predict with one well-formed result per query and
// stalls for stall on its stallAt-th request.
func fakeDaemon(t *testing.T, stallAt int64, stall time.Duration, mutate func(*api.PredictResponse)) *httptest.Server {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req api.PredictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		if served.Add(1) == stallAt {
			time.Sleep(stall)
		}
		resp := api.PredictResponse{Version: api.Version}
		for _, q := range req.Queries {
			resp.Results = append(resp.Results, api.QueryResult{SQL: q.SQL, Metrics: &api.Metrics{ElapsedSec: 1}, Generation: 1})
		}
		if mutate != nil {
			mutate(&resp)
		}
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func schedule(n int, every time.Duration) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{Due: time.Duration(i) * every, SQLs: []string{"SELECT 1"}}
	}
	return reqs
}

// One connection, one request due every 10 ms, and a server that sits on the
// sixth for 300 ms. In an open loop the requests due during the stall wait
// for the connection and are timed from when they were due, so the stall
// shows in every one of them, shrinking as the backlog drains; none of it is
// the generator's own lateness. In a closed loop the same stall costs the
// one request it hit.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	ts := fakeDaemon(t, 6, stall, nil)
	samples := drive(context.Background(), dial(ts.URL, 1), schedule(40, 10*time.Millisecond), true, time.Now())
	for i, s := range samples {
		if s.Err != nil {
			t.Fatalf("request %d: %v", i, s.Err)
		}
	}
	if samples[4].Lat > stall/3 {
		t.Errorf("request 4, before the stall, took %v", samples[4].Lat)
	}
	if samples[5].Lat < stall {
		t.Errorf("request 5 hit the stall but took %v", samples[5].Lat)
	}
	// Request 6 was due 10 ms into the stall, request 15 100 ms into it.
	for _, i := range []int{6, 10, 15} {
		want := stall - time.Duration(i-5)*10*time.Millisecond
		if got := samples[i].Lat; got < want-5*time.Millisecond {
			t.Errorf("request %d was due %v into the stall and took %v; want at least %v charged to it", i, time.Duration(i-5)*10*time.Millisecond, got, want)
		}
		if samples[i].Late > 20*time.Millisecond {
			t.Errorf("request %d: %v of the wait for a busy connection counted as the generator's lateness", i, samples[i].Late)
		}
	}
	if last := samples[39].Lat; last > stall/3 {
		t.Errorf("request 39, long after the backlog drained, took %v", last)
	}

	ts = fakeDaemon(t, 6, stall, nil)
	samples = drive(context.Background(), dial(ts.URL, 1), schedule(40, 0), false, time.Now())
	slow := 0
	for _, s := range samples {
		if s.Lat > stall/3 {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("closed loop: %d requests slowed by one stall, want 1", slow)
	}
}

func TestVerifyRejectsBadResponses(t *testing.T) {
	negative := func(r *api.PredictResponse) { r.Results[0].Metrics.DiskIOs = -1 }
	for _, tc := range []struct {
		name   string
		mutate func(*api.PredictResponse)
		want   string // substring of the error; "" for a good response
	}{
		{"good", nil, ""},
		{"missing result", func(r *api.PredictResponse) { r.Results = r.Results[1:] }, "results for"},
		{"per-query error", func(r *api.PredictResponse) { r.Results[1].Error = &api.Error{Code: api.CodeParse} }, "parse_error"},
		{"no metrics", func(r *api.PredictResponse) { r.Results[0].Metrics = nil }, "no metrics"},
		{"negative metric", negative, "not finite and non-negative"},
		{"generation went backwards", func(r *api.PredictResponse) { r.Results[1].Generation = 0 }, "generation"},
	} {
		ts := fakeDaemon(t, 0, 0, tc.mutate)
		c := dial(ts.URL, 1)[0]
		c.lastGen = 1
		_, err := c.send(context.Background(), &request{SQLs: []string{"SELECT 1", "SELECT 2"}})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
