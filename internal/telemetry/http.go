// Opt-in debug HTTP endpoint: JSON metrics, expvar, and pprof on one mux.
// Exposed by `cpsexp -debug-addr` (and cpsattack) so a long sweep can be
// profiled and watched live without touching its output files.
package telemetry

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MetricsHandler serves the registry's full snapshot (timings and spans
// included) as indented JSON.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		data, err := r.Snapshot(SnapshotOptions{Timings: true, Spans: true}).MarshalIndented()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
}

// DebugMux builds the debug mux: /metrics (JSON snapshot), /metrics/prom
// (Prometheus text exposition), /debug/vars (expvar, including the published
// telemetry snapshot), and the standard
// /debug/pprof endpoints. Handlers are wired explicitly instead of importing
// net/http/pprof for its DefaultServeMux side effect, so binaries that never
// opt in expose nothing.
func (r *Registry) DebugMux() *http.ServeMux {
	PublishExpvar()
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.MetricsHandler())
	mux.Handle("/metrics/prom", r.PromHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebugWith starts the debug endpoint on addr (e.g. "localhost:6060")
// in a background goroutine and returns the server plus the bound address
// (useful with ":0"). The caller owns shutdown via srv.Close. register, when
// non-nil, mounts extra handlers on the same mux before it starts serving —
// how cpsexp's shard-aggregation endpoints ride the existing -debug-addr
// listener instead of needing a second port.
func (r *Registry) ServeDebugWith(addr string, register func(mux *http.ServeMux)) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	mux := r.DebugMux()
	if register != nil {
		register(mux)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
