package server

import (
	"net/http/pprof"
	"time"

	"kpj"
	"kpj/internal/obs"
	"kpj/internal/wire"
)

// WithMetrics attaches a metrics registry to the server: request counters
// and a latency histogram are registered into it (kpj_http_*), and two
// read-only endpoints appear on the mux:
//
//	GET /metrics     Prometheus text exposition (format 0.0.4)
//	GET /debug/vars  the same values as a flat JSON object
//
// Callers typically also pass reg to kpj.EnableMetrics so the engine-wide
// kpj_engine_* counters appear on the same endpoint. The registry must
// not already contain kpj_http_* metrics.
func WithMetrics(reg *kpj.MetricsRegistry) Option {
	return func(s *Server) { s.metricsReg = reg }
}

// WithPprof exposes the standard net/http/pprof profiling handlers under
// GET /debug/pprof/ on the server's mux. Off by default: profiling
// endpoints reveal internals and cost CPU, so they are opt-in and belong
// behind the same network controls as the rest of the service.
func WithPprof() Option {
	return func(s *Server) { s.pprofOn = true }
}

// serverMetrics is the per-server instrument set. Built from a nil
// registry (WithMetrics not given) every instrument is nil, and the obs
// instruments are nil-safe, so handlers record unconditionally.
type serverMetrics struct {
	queryReqs *obs.Counter
	batchReqs *obs.Counter
	queryErrs *obs.Counter
	batchErrs *obs.Counter
	truncated *obs.Counter
	shed      *obs.Counter
	reloads   *obs.Counter
	reloadErr *obs.Counter
	updates   *obs.Counter
	updateErr *obs.Counter
	resyncs   *obs.Counter
	latencyUS *obs.Histogram
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		queryReqs: reg.Counter(`kpj_http_requests_total{route="query"}`, "completed /query requests"),
		batchReqs: reg.Counter(`kpj_http_requests_total{route="batch"}`, "completed /batch requests"),
		queryErrs: reg.Counter(`kpj_http_errors_total{route="query"}`, "/query requests answered with an error status"),
		batchErrs: reg.Counter(`kpj_http_errors_total{route="batch"}`, "/batch requests answered with an error status"),
		truncated: reg.Counter("kpj_http_truncated_total", "queries answered with truncated partial results"),
		shed:      reg.Counter("kpj_http_shed_total", "requests shed with 503 by the in-flight limiter"),
		reloads:   reg.Counter(`kpj_http_index_reloads_total{result="ok"}`, "successful index hot-reloads"),
		reloadErr: reg.Counter(`kpj_http_index_reloads_total{result="error"}`, "index hot-reloads rejected (old index kept)"),
		updates:   reg.Counter(`kpj_http_updates_total{result="ok"}`, "live updates that published a new epoch"),
		updateErr: reg.Counter(`kpj_http_updates_total{result="error"}`, "live updates rejected (old epoch kept)"),
		resyncs:   reg.Counter("kpj_http_resyncs_total", "snapshot resyncs that replaced the serving state"),
		// 64µs..~67s in 21 half-decade-ish steps: spans interactive
		// queries through deadline-bound worst cases.
		latencyUS: reg.Histogram("kpj_http_request_micros", "query/batch request latency in microseconds",
			obs.ExpBuckets(64, 2, 21)),
	}
}

func (m *serverMetrics) observeQuery(start time.Time, failed, truncated bool) {
	m.queryReqs.Inc()
	if failed {
		m.queryErrs.Inc()
	}
	if truncated {
		m.truncated.Inc()
	}
	m.latencyUS.Observe(time.Since(start).Microseconds())
}

func (m *serverMetrics) observeBatch(start time.Time, failed bool, truncated int64) {
	m.batchReqs.Inc()
	if failed {
		m.batchErrs.Inc()
	}
	m.truncated.Add(truncated)
	m.latencyUS.Observe(time.Since(start).Microseconds())
}

// installObs wires the observability endpoints; called from New after all
// options have been applied.
func (s *Server) installObs() {
	s.met = newServerMetrics(s.metricsReg)
	wire.MountMetrics(s.mux, s.metricsReg)
	if s.pprofOn {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}
