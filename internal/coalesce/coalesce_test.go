package coalesce

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// engine is a minimal serving engine over a Queue: it records every
// micro-batch's live size, holds the first at a gate, and answers every
// item with generation 1 of kind "test".
type engine struct {
	q       *Queue
	arrived chan struct{}
	release chan struct{}

	mu    sync.Mutex
	sizes []int
}

func startEngine(t *testing.T, cfg Config) *engine {
	e := &engine{arrived: make(chan struct{}), release: make(chan struct{})}
	e.q = Start(cfg, func(b *Batch) {
		e.mu.Lock()
		first := len(e.sizes) == 0
		e.mu.Unlock()
		if first {
			close(e.arrived)
			<-e.release
		}
		reqs := b.Live()
		e.mu.Lock()
		e.sizes = append(e.sizes, len(reqs))
		e.mu.Unlock()
		b.Answer(make([]core.Result, len(reqs)), 7)
	})
	t.Cleanup(e.q.Close)
	return e
}

func (e *engine) batches() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.sizes...)
}

func group(ctx context.Context, n int) *Group {
	return &Group{Ctx: ctx, Items: make([]Item, n)}
}

// admitBehindGate holds a first one-query batch at the gate and admits
// groups of the given sizes behind it, in order.
func admitBehindGate(t *testing.T, e *engine, sizes ...int) []*Group {
	t.Helper()
	ctx := context.Background()
	gs := []*Group{group(ctx, 1)}
	for _, n := range sizes {
		gs = append(gs, group(ctx, n))
	}
	for i, g := range gs {
		if err := e.q.Admit(g); err != nil {
			t.Fatalf("admitting group %d: %v", i, err)
		}
		if i == 0 {
			<-e.arrived
		}
	}
	return gs
}

func TestWholeGroupsWhileTheyFit(t *testing.T) {
	e := startEngine(t, Config{MaxBatch: 8, QueueCap: 64})
	gs := admitBehindGate(t, e, 3, 3, 3, 20, 2)
	close(e.release)
	for i, g := range gs {
		if err := g.Wait(); err != nil {
			t.Fatalf("group %d: %v", i, err)
		}
		for k := range g.Items {
			if g.Items[k].Gen != 7 {
				t.Fatalf("group %d item %d not answered: %+v", i, k, g.Items[k])
			}
		}
	}
	// 3+3 fit, the third 3 does not and opens the next batch, where the
	// 20 does not fit beside it; the 20 is cut into 8, 8 and a 4 that the 2
	// joins.
	if got, want := e.batches(), []int{1, 6, 3, 8, 8, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("micro-batches %v, want %v", got, want)
	}
}

func TestAdmitCountsQueries(t *testing.T) {
	e := startEngine(t, Config{MaxBatch: 8, QueueCap: 8})
	defer close(e.release)
	admitBehindGate(t, e, 6)
	ctx := context.Background()
	if err := e.q.Admit(group(ctx, 3)); !errors.Is(err, ErrFull) {
		t.Fatalf("3 queries beside 6 of 8 pending: err %v, want ErrFull", err)
	}
	if got := e.q.pending.Load(); got != 6 {
		t.Fatalf("pending %d after a refusal, want 6", got)
	}
	if err := e.q.Admit(group(ctx, 2)); err != nil {
		t.Fatalf("2 queries beside 6 of 8 pending: %v", err)
	}
	if err := e.q.Admit(group(ctx, 0)); err != nil {
		t.Fatalf("empty group: %v", err)
	}
}

func TestAbandonedGroupAnsweredOnce(t *testing.T) {
	e := startEngine(t, Config{MaxBatch: 4, QueueCap: 64})
	ctx, cancel := context.WithCancel(context.Background())
	first := group(context.Background(), 1)
	if err := e.q.Admit(first); err != nil {
		t.Fatal(err)
	}
	<-e.arrived
	// Three runs' worth of an abandoned group, then a live one.
	dead, live := group(ctx, 10), group(context.Background(), 2)
	for _, g := range []*Group{dead, live} {
		if err := e.q.Admit(g); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	close(e.release)
	if err := dead.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned group: err %v, want context.Canceled", err)
	}
	if err := live.Wait(); err != nil {
		t.Fatal(err)
	}
	e.q.Close()
	// The abandoned group's runs carry no live requests; its 2-query tail
	// run shares a batch with the live group.
	if got, want := e.batches(), []int{1, 0, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("micro-batches %v, want %v", got, want)
	}
}

func TestWindowHoldsAnIdleQueue(t *testing.T) {
	e := startEngine(t, Config{Window: 100 * time.Millisecond, MaxBatch: 8, QueueCap: 64})
	close(e.release)
	ctx := context.Background()
	a, b := group(ctx, 1), group(ctx, 2)
	if err := e.q.Admit(a); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Microsecond)
	if err := e.q.Admit(b); err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := e.batches(), []int{3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("micro-batches %v, want %v", got, want)
	}
}

func TestCloseDrainsThenRefuses(t *testing.T) {
	e := startEngine(t, Config{MaxBatch: 2, QueueCap: 64})
	gs := admitBehindGate(t, e, 2, 2, 2)
	closed := make(chan struct{})
	go func() {
		e.q.Close()
		close(closed)
	}()
	close(e.release)
	<-closed
	for i, g := range gs {
		if err := g.Wait(); err != nil {
			t.Fatalf("group %d admitted before Close: %v", i, err)
		}
	}
	if err := e.q.Admit(group(context.Background(), 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("admit after Close: err %v, want ErrClosed", err)
	}
}
