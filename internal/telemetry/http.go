package telemetry

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Publisher serves the debug endpoint: /debug/vars (expvar: cmdline
// and memstats) and /debug/pprof/* (live profiling, the point of the
// endpoint on long sweeps). Simulated-run metrics leave through
// -metrics-out and service metrics through dasserve's Prometheus
// /metrics, so the endpoint holds no run data of its own. The zero
// value is ready to Serve.
type Publisher struct {
	mu  sync.Mutex
	srv *http.Server
}

// Handler returns the debug mux. Every path it does not name, /metrics
// included, answers 404.
func (p *Publisher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "debug endpoint\n  /debug/vars\n  /debug/pprof/\n")
	})
	return mux
}

// Serve listens on addr and serves the debug endpoint until Shutdown
// (or process exit). It returns the bound address (useful with ":0") or
// an error if the listener cannot be created; serving errors after that
// are dropped, matching net/http debug-endpoint convention.
func (p *Publisher) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: http listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: p.Handler()}
	p.mu.Lock()
	p.srv = srv
	p.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Shutdown gracefully closes the listener started by Serve, letting
// in-flight requests finish within ctx's deadline. Safe on a nil
// publisher or one that never served; idempotent.
func (p *Publisher) Shutdown(ctx context.Context) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	srv := p.srv
	p.srv = nil
	p.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}
