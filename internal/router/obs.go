package router

import (
	"time"

	"kpj/internal/obs"
)

// routerMetrics is the kpj_router_* instrument set. Built from a nil
// registry (Config.Metrics unset) every instrument is nil, and the obs
// instruments are nil-safe, so the hot path records unconditionally.
type routerMetrics struct {
	reqs       map[string]*obs.Counter
	errs       map[string]*obs.Counter
	hedges     *obs.Counter
	hedgeWins  *obs.Counter
	failovers  *obs.Counter
	denied     *obs.Counter
	probes     *obs.Counter
	probeErrs  *obs.Counter
	toState    map[replicaState]*obs.Counter
	updates    *obs.Counter
	updateErrs *obs.Counter
	resyncs    *obs.Counter
	resyncErrs *obs.Counter
	latencyUS  *obs.Histogram
}

func newRouterMetrics(reg *obs.Registry, rt *Router) routerMetrics {
	m := routerMetrics{
		reqs:       map[string]*obs.Counter{},
		errs:       map[string]*obs.Counter{},
		toState:    map[replicaState]*obs.Counter{},
		hedges:     reg.Counter("kpj_router_hedges_total", "hedge attempts launched after the latency threshold"),
		hedgeWins:  reg.Counter("kpj_router_hedge_wins_total", "requests won by a non-primary attempt"),
		failovers:  reg.Counter("kpj_router_failovers_total", "attempts that failed and moved to the next candidate"),
		denied:     reg.Counter("kpj_router_retry_denied_total", "retries or hedges suppressed by an empty retry budget"),
		probes:     reg.Counter(`kpj_router_probes_total{result="ok"}`, "clean health probes"),
		probeErrs:  reg.Counter(`kpj_router_probes_total{result="error"}`, "failed health probes"),
		updates:    reg.Counter(`kpj_router_updates_total{result="ok"}`, "update fan-outs that advanced the fleet epoch"),
		updateErrs: reg.Counter(`kpj_router_updates_total{result="error"}`, "update fan-outs rejected or applied by no replica"),
		resyncs:    reg.Counter(`kpj_router_resyncs_total{result="ok"}`, "replica resyncs that reached the fleet generation"),
		resyncErrs: reg.Counter(`kpj_router_resyncs_total{result="error"}`, "replica resync attempts that failed (retried by the probe loop)"),
		// Same layout as kpj_http_request_micros so replica and router
		// latency histograms line up on a shared dashboard axis.
		latencyUS: reg.Histogram("kpj_router_request_micros", "routed request latency in microseconds",
			obs.ExpBuckets(64, 2, 21)),
	}
	for _, route := range []string{"query", "batch", "categories"} {
		m.reqs[route] = reg.Counter(`kpj_router_requests_total{route="`+route+`"}`, "completed /"+route+" requests")
		m.errs[route] = reg.Counter(`kpj_router_errors_total{route="`+route+`"}`, "/"+route+" requests answered with a typed router error")
	}
	for _, st := range []replicaState{stateHealthy, stateDown} {
		st, name := st, st.String()
		m.toState[st] = reg.Counter(`kpj_router_transitions_total{to="`+name+`"}`, "replica transitions into "+name)
		reg.GaugeFunc(`kpj_router_replicas{state="`+name+`"}`, "replicas currently in state "+name, func() int64 {
			var n int64
			for _, rp := range rt.reps {
				if rp.State() == st {
					n++
				}
			}
			return n
		})
	}
	return m
}

func (m *routerMetrics) observeRequest(route string, d time.Duration, res attemptResult) {
	m.reqs[route].Inc()
	if !res.usable() {
		m.errs[route].Inc()
	}
	m.latencyUS.Observe(d.Microseconds())
}
