package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Handler returns the observability HTTP handler:
//
//	/metrics        JSON snapshot (the JSON() encoding of Take())
//	/timings        human-readable stage-timing table (TimingsTable)
//	/debug/vars     expvar (includes the "obs" variable publishing Take())
//	/debug/pprof/*  runtime profiling endpoints
func Handler() http.Handler {
	publishOnce.Do(publishExpvar)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(JSON())
	})
	mux.HandleFunc("/timings", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(TimingsTable()))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// publishOnce guards expvar.Publish, which panics on duplicate names.
var publishOnce sync.Once

func publishExpvar() {
	expvar.Publish("obs", expvar.Func(func() any { return Take() }))
}

// ServeMetrics starts the observability endpoint on addr (e.g. ":6060" or
// "127.0.0.1:0") in a background goroutine and returns the bound address.
func ServeMetrics(addr string) (boundAddr string, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
