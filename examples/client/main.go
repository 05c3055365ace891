// Client example: drive a running qpredictd daemon through the
// pkg/qpredictclient library — readiness probe, a batched prediction, an
// observation round-trip, model/shard introspection, and the client-side
// batcher. Start a daemon first:
//
//	go run ./cmd/qpredictd -addr 127.0.0.1:8080 -train 160 -shards 4
//	go run ./examples/client -addr http://127.0.0.1:8080
//
// With -burst N the example instead fires N concurrent one- and two-query
// requests — against a daemon started with a tiny queue (-queue 1) this
// forces 429 shed-load responses and demonstrates the client's bounded
// retry with jittered backoff (the CI smoke test uses exactly this).
//
// With -observe N the example regenerates the daemon's workload locally
// (same -train/-seed/-dataseed) and replays N executed queries through
// /v1/observe with their true measured metrics, issuing a prediction after
// every batch to prove the daemon keeps serving while the observations
// slide its window and retrain its model.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/workload"
	"repro/pkg/qpredictclient"
)

var queries = []string{
	"SELECT COUNT(*) FROM store_sales",
	"SELECT ss_item_sk, SUM(ss_quantity) FROM store_sales GROUP BY ss_item_sk",
	"SELECT ss_customer_sk, AVG(ss_net_profit) FROM store_sales GROUP BY ss_customer_sk",
	"SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk",
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "qpredictd base URL")
	burst := flag.Int("burst", 0, "fire N concurrent requests instead (forces 429s against a tiny -queue daemon)")
	retries := flag.Int("retries", 3, "max retry attempts per request")
	observe := flag.Int("observe", 0, "replay N executed queries from the regenerated workload as observations")
	train := flag.Int("train", 160, "with -observe: the daemon's -train count")
	seed := flag.Int64("seed", 1, "with -observe: the daemon's workload seed")
	dataseed := flag.Int64("dataseed", 1000, "with -observe: the daemon's data seed")
	flag.Parse()

	c := qpredictclient.New(*addr, &qpredictclient.Options{MaxRetries: *retries})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Wait for the daemon to finish booting its model.
	for {
		if ok, err := c.Ready(ctx); err == nil && ok {
			break
		}
		select {
		case <-ctx.Done():
			log.Fatal("daemon never became ready")
		case <-time.After(200 * time.Millisecond):
		}
	}

	if *burst > 0 {
		runBurst(ctx, c, *burst)
		fmt.Printf("client retries: %d\n", c.Retries())
		return
	}

	if *observe > 0 {
		runObserve(ctx, c, *observe, *train, *seed, *dataseed)
		return
	}

	// One batched request: results come back aligned with the inputs,
	// per-query errors (if any) pinned to their slot.
	resp, err := c.Predict(ctx, queries...)
	if err != nil {
		log.Fatalf("predict: %v", err)
	}
	for _, r := range resp.Results {
		if r.Error != nil {
			fmt.Printf("  %-70s ERROR %s\n", r.SQL, r.Error.Code)
			continue
		}
		shard := ""
		if r.Shard != "" {
			shard = " shard=" + r.Shard
		}
		fmt.Printf("  %-70s %.3fs %s%s\n", r.SQL, r.Metrics.ElapsedSec, r.Category, shard)
	}

	// Feed one "executed" query back: here we pretend the prediction was
	// exact, which is how a real deployment closes the loop with measured
	// metrics.
	first := resp.Results[0]
	if first.Error == nil {
		ores, err := c.Observe(ctx, api.Observation{SQL: first.SQL, Metrics: *first.Metrics})
		if err != nil {
			log.Fatalf("observe: %v", err)
		}
		fmt.Printf("observed %d query (window now %d)\n", ores.Accepted, ores.WindowSize)
	}

	// Introspection: the aggregate model view, then the per-shard breakdown
	// (which only a sharded daemon serves).
	model, err := c.Model(ctx)
	if err != nil {
		log.Fatalf("model: %v", err)
	}
	fmt.Printf("model: generation %d, trained on %d, %d shards\n", model.Generation, model.TrainedOn, model.Shards)
	if shards, err := c.Shards(ctx); err == nil {
		for _, s := range shards.Shards {
			fmt.Printf("  shard %d: ready=%v gen=%d window=%d predictions=%d\n",
				s.ID, s.Ready, s.Generation, s.WindowSize, s.Predictions)
		}
	}

	// The client-side batcher: concurrent callers coalesce into batched
	// wire requests, mirroring the daemon's own micro-batch coalescer.
	b := qpredictclient.NewBatcher(c, 2*time.Millisecond, 64)
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Predict(ctx, queries[i%len(queries)]); err != nil {
				log.Printf("batched predict: %v", err)
			}
		}(i)
	}
	wg.Wait()
	fmt.Printf("batched 16 concurrent predictions\n")
	fmt.Printf("client retries: %d\n", c.Retries())
}

// runObserve regenerates the daemon's training workload (the simulated
// executor is deterministic in its seeds, so the same parameters reproduce
// the same queries and metrics) and replays n of them as executed-query
// observations. A prediction is issued after every batch: the serving path
// must never drop a request while observations retrain and hot-swap the
// model behind it.
func runObserve(ctx context.Context, c *qpredictclient.Client, n, train int, seed, dataseed int64) {
	pool, err := dataset.Generate(dataset.GenConfig{
		Seed: seed, DataSeed: dataseed, Machine: exec.Research4(),
		Schema: catalog.TPCDS(1), Templates: workload.TPCDSTemplates(), Count: train,
	})
	if err != nil {
		log.Fatalf("regenerating workload: %v", err)
	}
	const batch = 20
	sent := 0
	for sent < n {
		var obs []api.Observation
		for i := sent; i < n && i < sent+batch; i++ {
			q := pool.Queries[i%len(pool.Queries)]
			m := q.Metrics
			obs = append(obs, api.Observation{SQL: q.SQL, Metrics: api.Metrics{
				ElapsedSec: m.ElapsedSec, RecordsAccessed: m.RecordsAccessed,
				RecordsUsed: m.RecordsUsed, DiskIOs: m.DiskIOs,
				MessageCount: m.MessageCount, MessageBytes: m.MessageBytes,
			}})
		}
		if _, err := c.Observe(ctx, obs...); err != nil {
			log.Fatalf("observe at %d: %v", sent, err)
		}
		sent += len(obs)
		if res, err := c.PredictOne(ctx, queries[sent%len(queries)]); err != nil {
			log.Fatalf("predict during observe stream (after %d): %v", sent, err)
		} else if res.Metrics == nil {
			log.Fatalf("empty prediction during observe stream (after %d)", sent)
		}
	}
	fmt.Printf("observed %d executed queries, predictions served throughout\n", sent)
}

// runBurst fires n concurrent predictions, every 16th of two queries and
// the rest of one. Against a daemon with a tiny queue some will be shed
// with 429; the client retries them with backoff, so they still succeed —
// watch the retry counter. (A request larger than the whole queue is
// admitted whenever nothing is pending, so the two-query ones succeed even
// against -queue 1.)
func runBurst(ctx context.Context, c *qpredictclient.Client, n int) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, failed := 0, 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sqls := []string{queries[i%len(queries)]}
			if i%16 == 0 {
				sqls = append(sqls, queries[(i+1)%len(queries)])
			}
			_, err := c.Predict(ctx, sqls...)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failed++
			} else {
				ok++
			}
		}(i)
	}
	wg.Wait()
	fmt.Printf("burst: %d ok, %d failed\n", ok, failed)
}
