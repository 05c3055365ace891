// Package coalesce is the micro-batching queue of each internal/shard shard:
// the admission rule, the gather loop that forms micro-batches, and the
// bookkeeping that answers them.
//
// The unit that travels through the queue is the request, not the query: a
// handler admits its planned queries as one Group — one queue entry, one
// admission decision, one completion signal — and a micro-batch is built
// from whole groups, so how a request is cut into predict calls is a
// function of the requests alone, never of goroutine timing.
//
// The queue is work-conserving: with Window zero (the stock setting) an idle
// engine dispatches the first arrival at once, and batch size comes only
// from what queued while the previous micro-batch ran. A positive Window
// holds an open micro-batch that long for more arrivals.
package coalesce

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Queue metrics. The names are the serving tier's: every shard's queue feeds
// the same series, so dashboards read one queue depth and one batch-size
// histogram however many shards the daemon runs.
var (
	queueDepth    = obs.GetGauge("serve.queue.depth")
	batchSizeHist = obs.GetHistogram("serve.batch.size")
	queueWait     = obs.GetHistogram("serve.queue_wait.seconds")
	batchSeconds  = obs.GetHistogram("serve.batch.seconds")
	rejectedLoad  = obs.GetCounter("serve.rejected.overload")
)

// Admission errors.
var (
	// ErrFull: the group does not fit beside what is already pending; shed
	// and retry (HTTP 429 at the serving layer).
	ErrFull = errors.New("coalesce: queue is full")
	// ErrClosed: the queue is draining and admits nothing new.
	ErrClosed = errors.New("coalesce: queue is closed")
)

// Item is one query of a group: the request, and — once Wait returns nil —
// its result with the generation of the model that served it.
type Item struct {
	Req core.Request
	Res core.Result
	Gen int64
}

// Group is one request's queries travelling the queue together. The caller
// fills Ctx and Items, admits the group, and calls Wait; it must not touch
// Items between a successful Admit and Wait returning nil.
type Group struct {
	// Ctx is the submitting request's context. A group whose context is
	// already done when one of its micro-batches runs is answered with the
	// context error and excluded from the predict call, so an abandoned
	// request costs nothing past its deadline and a backed-up queue drains
	// in O(queue) instead of O(queue × predict).
	Ctx   context.Context
	Items []Item

	// done is closed by the coalescer once every item is answered or the
	// group is abandoned; the close publishes err and every item's result.
	done     chan struct{}
	err      error
	admitted time.Time
	// next is the first item not yet placed in a micro-batch. It belongs to
	// the coalescer goroutine, as does err until done is closed.
	next int
}

// Wait blocks until the group is answered or its context is done, and
// returns nil or the context's error. After an error the items are still
// the coalescer's and must not be read.
func (g *Group) Wait() error {
	select {
	case <-g.done:
		return g.err
	case <-g.Ctx.Done():
		return g.Ctx.Err()
	}
}

// Config sizes a Queue.
type Config struct {
	// Window is how long an open micro-batch is held for more arrivals.
	// Zero never waits: a batch is whatever is queued when it forms.
	Window time.Duration
	// MaxBatch caps a micro-batch, in queries.
	MaxBatch int
	// QueueCap bounds the queries pending admission to a micro-batch.
	QueueCap int
}

// Queue is a bounded FIFO of groups drained by one coalescer goroutine.
// Create with Start, stop with Close.
type Queue struct {
	cfg Config

	mu     sync.Mutex // orders admissions (and the send on ch) against Close
	closed bool
	// pending counts queries admitted but not yet placed in a micro-batch —
	// the unit QueueCap and serve.queue.depth are stated in.
	pending atomic.Int64
	// ch carries at most one entry per pending query, so with QueueCap
	// slots an admitted group's send never blocks.
	ch       chan *Group
	finished chan struct{}

	// head is a group the coalescer has received but not fully placed: one
	// that did not fit the previous micro-batch, or the rest of an oversized
	// one. Owned by the coalescer goroutine.
	head *Group
}

// Start builds a queue and its coalescer goroutine, which forms
// micro-batches and hands each to serve until Close. serve runs on that one
// goroutine: it calls Live for the requests to predict and Answer with
// their results.
func Start(cfg Config, serve func(*Batch)) *Queue {
	q := &Queue{
		cfg:      cfg,
		ch:       make(chan *Group, cfg.QueueCap),
		finished: make(chan struct{}),
	}
	go q.loop(serve)
	return q
}

// Admit queues a group without blocking, all or nothing: it is admitted
// when its queries fit under QueueCap beside what is pending, or when
// nothing is pending (so a request larger than the whole queue is served
// rather than refused forever); otherwise it is refused with ErrFull and
// leaves nothing behind. A group with no items is answered at once.
func (q *Queue) Admit(g *Group) error {
	n := int64(len(g.Items))
	g.done = make(chan struct{})
	if n == 0 {
		close(g.done)
		return nil
	}
	g.admitted = time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if p := q.pending.Load(); p > 0 && p+n > int64(q.cfg.QueueCap) {
		rejectedLoad.Inc()
		return ErrFull
	}
	q.pending.Add(n)
	queueDepth.Add(n)
	q.ch <- g
	return nil
}

// Close refuses further admissions, lets the coalescer answer every group
// already admitted, and returns once it has exited. Idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
	q.mu.Unlock()
	<-q.finished
}

func (q *Queue) loop(serve func(*Batch)) {
	defer close(q.finished)
	// The batch and its scratch are reused across micro-batches: the
	// steady-state loop allocates nothing.
	b := &Batch{runs: make([]run, 0, q.cfg.MaxBatch)}
	for q.gather(b) {
		start, n := time.Now(), len(b.runs)
		for _, r := range b.runs {
			if r.lo == 0 {
				queueWait.Observe(start.Sub(r.g.admitted).Seconds())
			}
		}
		serve(b)
		batchSeconds.Observe(time.Since(start).Seconds())
		// Drop group and query pointers so answered requests are
		// collectable while the scratch is reused.
		clear(b.runs[:n])
		b.runs = b.runs[:0]
		clear(b.reqs)
	}
}

// gather blocks for the next group and forms one micro-batch around it:
// whole groups in FIFO order while they fit in MaxBatch, waiting out Window
// (when positive) for more while there is room. Only a group larger than
// MaxBatch is cut, into MaxBatch-sized runs in input order. It reports
// false once the queue is closed and empty.
func (q *Queue) gather(b *Batch) bool {
	g := q.head
	if g == nil {
		var ok bool
		if g, ok = <-q.ch; !ok {
			return false
		}
	}
	var timer *time.Timer
	var timeout <-chan time.Time
	n := 0
	for {
		rest := len(g.Items) - g.next
		if n > 0 && rest > q.cfg.MaxBatch-n {
			break // does not fit: it opens the next micro-batch
		}
		take := min(rest, q.cfg.MaxBatch)
		b.runs = append(b.runs, run{g: g, lo: g.next, hi: g.next + take})
		g.next += take
		n += take
		if g.next < len(g.Items) {
			break // oversized: the rest opens the next micro-batch
		}
		g = nil
		if n == q.cfg.MaxBatch {
			break
		}
		if q.cfg.Window > 0 && timer == nil {
			timer = time.NewTimer(q.cfg.Window)
			timeout = timer.C
		}
		if g = q.more(timeout); g == nil {
			break
		}
	}
	if timer != nil {
		timer.Stop()
	}
	q.head = g
	q.pending.Add(int64(-n))
	queueDepth.Add(int64(-n))
	return true
}

// more returns the next queued group, waiting for one until timeout fires
// (a nil timeout never waits). It returns nil when there is none or the
// queue is closed.
func (q *Queue) more(timeout <-chan time.Time) *Group {
	select {
	case g := <-q.ch:
		return g
	default:
	}
	if timeout == nil {
		return nil
	}
	select {
	case g := <-q.ch:
		return g
	case <-timeout:
		return nil
	}
}

// run is a contiguous range of one group's items placed in a micro-batch.
type run struct {
	g      *Group
	lo, hi int
}

// Batch is one micro-batch handed to the engine's serve function.
type Batch struct {
	runs []run
	reqs []core.Request
}

// Live answers every group whose context is already done with that error —
// once, however many of its items were still to come — and returns the
// remaining requests in batch order. The slice is valid until serve
// returns.
func (b *Batch) Live() []core.Request {
	live := b.runs[:0]
	b.reqs = b.reqs[:0]
	for _, r := range b.runs {
		g := r.g
		if g.err == nil {
			select {
			case <-g.Ctx.Done():
				g.err = g.Ctx.Err()
				close(g.done)
			default:
			}
		}
		if g.err != nil {
			continue
		}
		live = append(live, r)
		for i := r.lo; i < r.hi; i++ {
			b.reqs = append(b.reqs, g.Items[i].Req)
		}
	}
	b.runs = live
	if len(b.reqs) > 0 {
		batchSizeHist.Observe(float64(len(b.reqs)))
	}
	return b.reqs
}

// Answer stores results — positionally those of the requests Live returned,
// all served by one model of the given generation — and completes every
// group whose last item this batch carried.
func (b *Batch) Answer(results []core.Result, gen int64) {
	k := 0
	for _, r := range b.runs {
		for i := r.lo; i < r.hi; i++ {
			it := &r.g.Items[i]
			it.Res, it.Gen = results[k], gen
			k++
		}
		if r.hi == len(r.g.Items) {
			close(r.g.done)
		}
	}
}
