// Package qpredictclient is the Go client for the qpredictd prediction
// service (internal/serve, docs/API.md): dependency-free, with connection
// reuse, request batching, and bounded retries. Predict bodies go through
// the daemon's own wire codec (internal/api: one pass, same values and bytes
// as encoding/json); everything else is encoding/json.
//
//	c := qpredictclient.New("http://localhost:8080", nil)
//	res, err := c.PredictOne(ctx, "SELECT COUNT(*) FROM store_sales")
//
// Transient failures — 429 (a shard's queue is full) and 5xx — are retried
// with jittered exponential backoff, honoring the server's Retry-After
// hint; everything else (4xx, malformed bodies) fails immediately with an
// *APIError carrying the server's stable error code. A 503 whose code is
// shutting_down is final despite its retryable status: the daemon is
// draining and will not come back, so the client surfaces the error
// immediately instead of hammering a dying process. All calls respect
// context cancellation, including mid-backoff.
package qpredictclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// Options tune a Client. The zero value is ready to use.
type Options struct {
	// HTTPClient overrides the underlying transport. The default is a
	// dedicated http.Client with keep-alives (connection reuse) enabled —
	// shared by every call through this Client.
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after the first try (default 3;
	// negative disables retries).
	MaxRetries int
	// BackoffBase is the first retry's nominal delay (default 100ms). Each
	// subsequent retry doubles it, capped at BackoffMax (default 2s), with
	// ±50% jitter. A server Retry-After overrides the computed delay when
	// it is longer.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Jitter overrides the jitter source (tests); given the nominal delay
	// it returns the actual one. Default: nominal/2 + rand(nominal).
	Jitter func(d time.Duration) time.Duration
	// UserAgent overrides the User-Agent header (default "qpredictclient/1").
	UserAgent string
}

// APIError is a non-2xx response decoded from the wire: Code is the stable
// branchable cause (api.Code*), Status the HTTP status.
type APIError struct {
	Code    string
	Message string
	Status  int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("qpredictd: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// Client talks to one qpredictd daemon. Safe for concurrent use; create
// with New.
type Client struct {
	base    string
	http    *http.Client
	opts    Options
	retries atomic.Int64

	mu  sync.Mutex
	rnd *rand.Rand
}

// New returns a client for the daemon at base (e.g. "http://localhost:8080").
// opts may be nil for defaults.
func New(base string, opts *Options) *Client {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.UserAgent == "" {
		o.UserAgent = "qpredictclient/1"
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{
		base: base,
		http: o.HTTPClient,
		opts: o,
		rnd:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Retries reports how many retry attempts this client has made — the
// observable proof that backoff engaged (used by the CI smoke test).
func (c *Client) Retries() int64 { return c.retries.Load() }

// Predict predicts a batch of SQL queries in one request. The returned
// results align one-to-one with sqls; per-query failures are reported in
// each result's Error field, whole-request failures in err.
func (c *Client) Predict(ctx context.Context, sqls ...string) (*api.PredictResponse, error) {
	if len(sqls) == 0 {
		return nil, errors.New("qpredictclient: no queries")
	}
	bb := bodyPool.Get().(*bodyBuf)
	defer bodyPool.Put(bb)
	bb.buf.Reset()
	bb.buf.Write(api.AppendPredictRequest(bb.buf.AvailableBuffer(), sqls))
	var resp api.PredictResponse
	err := c.do(ctx, http.MethodPost, "/v1/predict", bb.buf.Bytes(), func(data []byte) error {
		// Results echo their query: where one does, it shares the caller's
		// string rather than holding a copy.
		_, err := api.DecodePredictResponse(data, &resp, sqls...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// PredictOne predicts a single query, unwrapping the batch envelope. A
// per-query error comes back as an *APIError.
func (c *Client) PredictOne(ctx context.Context, sql string) (*api.QueryResult, error) {
	resp, err := c.Predict(ctx, sql)
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("qpredictclient: %d results for one query", len(resp.Results))
	}
	r := &resp.Results[0]
	if r.Error != nil {
		return nil, &APIError{Code: r.Error.Code, Message: r.Error.Message, Status: http.StatusOK}
	}
	return r, nil
}

// Observe feeds executed queries with their measured metrics into the
// daemon's retraining window. Note on retries: observe is not idempotent —
// if a retried request had been partially accepted before failing, the
// accepted prefix is enqueued again (harmless for the sliding window, which
// treats observations as a stream, but counts inflate).
func (c *Client) Observe(ctx context.Context, obs ...api.Observation) (*api.ObserveResponse, error) {
	if len(obs) == 0 {
		return nil, errors.New("qpredictclient: no observations")
	}
	bb := bodyPool.Get().(*bodyBuf)
	defer bodyPool.Put(bb)
	bb.buf.Reset()
	if err := bb.enc.Encode(api.ObserveRequest{Observations: obs}); err != nil {
		return nil, fmt.Errorf("qpredictclient: encoding request: %w", err)
	}
	var resp api.ObserveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/observe", bb.buf.Bytes(), into(&resp)); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Model fetches the served model's metadata.
func (c *Client) Model(ctx context.Context) (*api.ModelInfo, error) {
	var resp struct {
		Model *api.ModelInfo `json:"model"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/model", nil, into(&resp)); err != nil {
		return nil, err
	}
	return resp.Model, nil
}

// Shards fetches the daemon's routing policy and per-shard model state; a
// daemon of one shard answers with that shard.
func (c *Client) Shards(ctx context.Context) (*api.ShardsResponse, error) {
	var resp api.ShardsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/shards", nil, into(&resp)); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Ready reports whether the daemon serves a model and is not draining.
func (c *Client) Ready(ctx context.Context) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("User-Agent", c.opts.UserAgent)
	resp, err := c.http.Do(req)
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, nil
}

// into is the decode step of every body but a predict response's:
// encoding/json.
func into(v any) func([]byte) error {
	return func(data []byte) error { return json.Unmarshal(data, v) }
}

// bodyBuf pairs a reusable request-encode buffer with a json.Encoder bound
// to it once, so steady-state calls reuse both the encoder state and the
// underlying bytes. Predict bodies are appended by the codec; the encoder
// writes the rest.
type bodyBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var bodyPool = sync.Pool{New: func() any {
	b := new(bodyBuf)
	b.enc = json.NewEncoder(&b.buf)
	return b
}}

// readPool recycles response-read buffers; both decoders copy everything
// they keep, so the bytes are safe to reuse as soon as decoding finishes.
var readPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxResponse bounds a response body. The daemon accepts 4 MiB of request
// and echoes every query, so a legal response can be larger than this; it
// is refused, not truncated.
const maxResponse = 4 << 20

var errResponseTooLarge = errors.New("qpredictclient: response exceeds 4 MiB")

// retryable reports whether a status merits another attempt: 429 (shed
// load) and 5xx (transient server trouble). 4xx caller mistakes never
// retry.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// retryAfter parses a Retry-After header as delta-seconds or an HTTP date,
// returning 0 when absent or unparseable.
func retryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// backoff computes the attempt'th retry delay: exponential from
// BackoffBase, capped at BackoffMax, jittered, and never shorter than the
// server's Retry-After hint.
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	d := c.opts.BackoffBase << attempt
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	if c.opts.Jitter != nil {
		d = c.opts.Jitter(d)
	} else {
		c.mu.Lock()
		d = d/2 + time.Duration(c.rnd.Int63n(int64(d)))
		c.mu.Unlock()
	}
	if hint > d {
		d = hint
	}
	return d
}

// do runs one round-trip with bounded retries: body, if not nil, is sent as
// JSON and replayed on each attempt (the caller keeps it intact until do
// returns), and decode is handed the body of a 2xx response — the mirror of
// the server's readBody. Backoff sleeps abort on context cancellation.
func (c *Client) do(ctx context.Context, method, path string, body []byte, decode func([]byte) error) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		req.Header.Set("User-Agent", c.opts.UserAgent)
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http.Do(req)
		var hint time.Duration
		if err != nil {
			// Transport errors (refused, reset) retry like a 5xx; context
			// errors are final.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
		} else {
			err := c.receive(resp, decode)
			apiErr, failed := err.(*APIError)
			// A draining server reports shutting_down until the listener
			// stops: the condition is terminal for that process, so retrying
			// against it only delays the caller's failover.
			if !failed || !retryable(apiErr.Status) || apiErr.Code == api.CodeShuttingDown {
				return err
			}
			lastErr, hint = apiErr, retryAfter(resp.Header)
		}
		if attempt >= c.opts.MaxRetries {
			return lastErr
		}
		c.retries.Add(1)
		t := time.NewTimer(c.backoff(attempt, hint))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// receive reads one response into a pooled buffer and closes it. A 2xx body
// goes to decode; any other status comes back as the *APIError it carries.
func (c *Client) receive(resp *http.Response, decode func([]byte) error) error {
	rb := readPool.Get().(*bytes.Buffer)
	defer readPool.Put(rb)
	rb.Reset()
	_, rerr := rb.ReadFrom(io.LimitReader(resp.Body, maxResponse+1))
	tooLarge := rb.Len() > maxResponse
	if tooLarge {
		// Read on to the end, within reason, so that the connection can
		// carry the next request.
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxResponse))
	}
	resp.Body.Close()
	data := rb.Bytes()
	if resp.StatusCode/100 == 2 {
		switch {
		case rerr != nil:
			return fmt.Errorf("qpredictclient: reading response: %w", rerr)
		case tooLarge:
			return errResponseTooLarge
		}
		return decode(data)
	}
	apiErr := &APIError{Code: api.CodeInternal, Status: resp.StatusCode}
	var wire api.ErrorResponse
	if json.Unmarshal(data, &wire) == nil && wire.Error.Code != "" {
		apiErr.Code = wire.Error.Code
		apiErr.Message = wire.Error.Message
	} else {
		apiErr.Message = http.StatusText(resp.StatusCode)
	}
	return apiErr
}
