// Command qpredictd is the online prediction service: the paper's Fig. 1
// vendor-trains / customer-predicts workflow as a long-running daemon. It
// trains (or loads) a performance predictor at boot, then serves JSON
// predictions over HTTP, micro-batching concurrent requests into batches
// predicted one query per core and hot-swapping in background retrains fed by
// /v1/observe execution feedback. See docs/API.md for the wire schema.
//
// Usage:
//
//	qpredictd -addr :8080 -train 800
//	qpredictd -addr :8080 -load model.bin -capacity 500 -retrain-every 100
//	qpredictd -config qpredictd.json
//
//	curl -s localhost:8080/v1/predict -d '{"sql": "SELECT COUNT(*) FROM store_sales"}'
//
// -config loads a qpredict.Options JSON file (example under
// examples/config/); any flag explicitly set on the command line overrides
// the corresponding config field (qpredict.Parse). qpredict.Start builds the
// service from those options; this command only listens and drains.
//
// Every daemon serves through one engine, a router over -shards N shards
// (internal/shard). The stock daemon runs one shard, which everything routes
// to; with N > 1 traffic is partitioned across N per-shard sliding
// predictors by consistent hashing of the template fingerprint, each with
// its own coalescer, generation, and background retrain loop. GET /v1/shards
// exposes the per-shard state either way.
//
// Endpoints: /v1/predict, /v1/observe, /v1/model, /v1/shards, /healthz,
// /readyz, plus the observability surface (/metrics, /timings,
// /debug/pprof) on the same listener. SIGINT/SIGTERM drain gracefully: the
// listener stops accepting, in-flight micro-batches and queued
// observations finish, then the process exits through the shared cleanup
// path (which also flushes -timings).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/pkg/qpredict"
)

func main() {
	timings := flag.Bool("timings", false, "print the per-stage timing table on exit")
	opts, err := qpredict.Parse(flag.CommandLine, os.Args[1:], os.Stderr, qpredict.TrainFlags, qpredict.DaemonFlags)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	if *timings {
		cli.AtExit(func() { fmt.Fprint(os.Stderr, "\n"+obs.TimingsTable()) })
	}
	svc, modelDesc, err := qpredict.Start(opts, os.Stderr)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	// The drain is an exit hook, so every exit route — signal, Fatalf, or
	// normal return — finishes in-flight work before the process dies.
	cli.AtExit(svc.Close)

	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	oh := obs.Handler()
	mux.Handle("/metrics", oh)
	mux.Handle("/timings", oh)
	mux.Handle("/debug/", oh)

	ln, err := net.Listen("tcp", opts.Serve.Addr)
	if err != nil {
		cli.Fatalf("listening on %s: %v", opts.Serve.Addr, err)
	}
	httpSrv := newHTTPServer(mux, readHeaderTimeout)
	fmt.Printf("qpredictd serving on http://%s (%s)\n", ln.Addr(), modelDesc)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	// Boot training and any retrains a WAL replay ran are over: hand their
	// working set back to the OS. The listener already answers, so
	// readiness never waits for this.
	fmt.Fprintf(os.Stderr, "returned %.1f MB of training memory to the OS\n", float64(shard.ReleaseMemory())/(1<<20))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "signal received, draining...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), opts.Serve.DrainTimeout.Std())
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
		}
		cli.Exit(0)
	case err := <-errc:
		cli.Fatalf("server: %v", err)
	}
}

// Connection timeouts of the daemon's listener. A client gets
// readHeaderTimeout to deliver a request's header once its first byte has
// arrived, and a kept-alive connection may sit idle between requests for
// idleTimeout; a connection that trickles or goes quiet is closed instead of
// holding a goroutine and a descriptor for good. Bodies are bounded in size
// (Serve.MaxBody) and handlers by the per-request deadline.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer builds the daemon's http.Server around its handler. The
// header timeout is a parameter only so that a test can shorten it.
func newHTTPServer(h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
}
