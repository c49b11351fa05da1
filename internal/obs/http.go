package obs

import (
	"io"
	"net/http"
	"net/http/pprof"
)

// Mux returns an HTTP handler serving the standard operational
// endpoints:
//
//	/metrics              the Prometheus text exposition metrics writes
//	/healthz              200 "ok" (or 503 with the error when health fails)
//	/debug/pprof/         the full pprof suite (profile, heap, trace, ...)
//	/debug/stm/conflicts  the STM conflict matrix, when conflicts is not
//	                      nil (JSON; ?format=text for the report form —
//	                      see Conflicts.Handler)
//
// health may be nil, in which case /healthz always reports healthy.
// The pprof handlers are registered explicitly rather than through
// http.DefaultServeMux so an stmkv process never exposes them on a
// listener it didn't ask for.
func Mux(metrics func(io.Writer), health func() error, conflicts *Conflicts) *http.ServeMux {
	mux := http.NewServeMux()
	if conflicts != nil {
		mux.Handle("/debug/stm/conflicts", conflicts.Handler())
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		if health != nil {
			if err := health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
