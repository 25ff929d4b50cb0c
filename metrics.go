package kpj

import (
	"kpj/internal/core"
	"kpj/internal/obs"
)

// MetricsRegistry collects the library's counters, gauges, and histograms
// and renders them in Prometheus text format (WritePrometheus) or as a
// flat JSON object (WriteJSON). Registries are safe for concurrent use;
// metric updates are lock-free atomic operations. A nil registry — and
// every metric created from one — is valid and records nothing, so
// instrumented code needs no "is observability on" branches.
type MetricsRegistry = obs.Registry

// Spans records the phase timeline of a single query — lower-bound table
// builds, SPT construction, each bound iteration, subspace division,
// candidate resolution — for EXPLAIN ANALYZE-style inspection via
// Options.Spans. Timing is observational only: recording spans never
// changes the emitted path sequence. A nil *Spans records nothing at zero
// cost.
type Spans = obs.Spans

// Span is one recorded phase interval; see Spans.
type Span = obs.Span

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSpans returns an empty per-query span recorder for Options.Spans.
func NewSpans() *Spans { return obs.NewSpans() }

// EnableMetrics registers the engine-wide counters (queries served, heap
// pops, edges relaxed, SPT nodes grown, pool scheduling, budget drain —
// the kpj_engine_* family) into reg and starts feeding them from every
// query processed by this process. Counters are aggregated from per-query
// Stats at query completion, so search inner loops gain no atomic
// operations. Call at most once per registry (metric names are unique);
// EnableMetrics(nil) turns collection off again.
func EnableMetrics(reg *MetricsRegistry) {
	if reg == nil {
		core.SetMetrics(nil)
		return
	}
	core.SetMetrics(core.NewEngineMetrics(reg))
}

// observeQuery folds one completed query into the process-wide engine
// metrics (a no-op while EnableMetrics has not been called). err is the
// query's final error, after finishQuery wrapping: truncation sentinels
// classify as Truncated, anything else non-nil as a query error.
func observeQuery(st *Stats, budget int64, err error) {
	em := core.Metrics()
	if em == nil {
		return
	}
	// Classify by the wrapper, not an errors.Is allowlist: any
	// *TruncatedError (cancellation, budget, recovered panic) counts as
	// truncated, everything else non-nil as a query error.
	_, truncated := Truncated(err)
	em.ObserveQuery(st, truncated, err != nil && !truncated, budget > 0)
}
