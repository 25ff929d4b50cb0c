package core

import (
	"sync/atomic"

	"kpj/internal/obs"
)

// EngineMetrics groups the process-wide engine counters: cumulative work
// across every query served since the metrics were enabled. Per-query
// work is already tracked scheduler-free in Stats; these counters are fed
// by whole-query Stats aggregation at query completion, so the search
// inner loops gain no atomic operations.
//
// All fields are nil-safe obs counters: an EngineMetrics built from a nil
// registry — or a nil *EngineMetrics — records nothing at zero cost.
type EngineMetrics struct {
	// Queries counts completed queries; QueryErrors the subset that
	// returned a non-truncation error; Truncated the subset cut short by
	// a deadline or budget with a usable partial result.
	Queries     *obs.Counter
	QueryErrors *obs.Counter
	Truncated   *obs.Counter

	// Work counters mirror Stats, accumulated across queries.
	Searches     *obs.Counter
	LowerBounds  *obs.Counter
	HeapPops     *obs.Counter
	EdgesRelaxed *obs.Counter
	TauRounds    *obs.Counter
	SPTNodes     *obs.Counter

	// BudgetDrained accumulates the Stats work units (heap pops + edge
	// relaxations) of budget-capped queries — the denominator for "how
	// much of the configured budget do real queries use". It undercounts
	// the budget drawn by one unit per main-loop subspace-queue pop, which
	// the budget charges and Stats does not count.
	BudgetDrained *obs.Counter
}

// NewEngineMetrics registers the engine counter set into reg under the
// kpj_engine_* namespace. A nil registry yields nil, the disabled state.
func NewEngineMetrics(reg *obs.Registry) *EngineMetrics {
	if reg == nil {
		return nil
	}
	return &EngineMetrics{
		Queries:       reg.Counter("kpj_engine_queries_total", "completed queries"),
		QueryErrors:   reg.Counter("kpj_engine_query_errors_total", "queries failed with a non-truncation error"),
		Truncated:     reg.Counter("kpj_engine_queries_truncated_total", "queries cut short by deadline or budget"),
		Searches:      reg.Counter("kpj_engine_searches_total", "subspace shortest-path / TestLB searches"),
		LowerBounds:   reg.Counter("kpj_engine_lower_bounds_total", "CompLB invocations"),
		HeapPops:      reg.Counter("kpj_engine_heap_pops_total", "priority-queue pops across all searches"),
		EdgesRelaxed:  reg.Counter("kpj_engine_edges_relaxed_total", "successful edge relaxations (deviation edges examined)"),
		TauRounds:     reg.Counter("kpj_engine_tau_rounds_total", "bounded searches that exceeded tau"),
		SPTNodes:      reg.Counter("kpj_engine_spt_nodes_total", "nodes settled into SPT_P / SPT_I / full SPTs"),
		BudgetDrained: reg.Counter("kpj_engine_budget_drained_total", "heap pops + edge relaxations of budget-capped queries (excludes the budget's main-loop pops)"),
	}
}

// ObserveQuery folds one completed query into the engine-wide counters:
// st is the query's own Stats (nil skips the work counters), truncated
// and failed classify its outcome, and budgeted marks budget-capped
// queries whose work feeds BudgetDrained. Nil-safe.
func (m *EngineMetrics) ObserveQuery(st *Stats, truncated, failed, budgeted bool) {
	if m == nil {
		return
	}
	m.Queries.Inc()
	if truncated {
		m.Truncated.Inc()
	}
	if failed {
		m.QueryErrors.Inc()
	}
	if st == nil {
		return
	}
	m.Searches.Add(st.Searches)
	m.LowerBounds.Add(st.LowerBounds)
	m.HeapPops.Add(st.NodesPopped)
	m.EdgesRelaxed.Add(st.EdgesRelaxed)
	m.TauRounds.Add(st.TauRounds)
	m.SPTNodes.Add(st.SPTNodes)
	if budgeted {
		m.BudgetDrained.Add(st.NodesPopped + st.EdgesRelaxed)
	}
}

// enabledMetrics is the process-wide instrumentation target, swapped
// atomically so enabling metrics after queries are in flight is safe.
// The default nil means disabled: every hook degrades to a nil check.
var enabledMetrics atomic.Pointer[EngineMetrics]

// SetMetrics installs (or, with nil, removes) the process-wide engine
// metrics. Typically called once at startup by kpj.EnableMetrics.
func SetMetrics(m *EngineMetrics) { enabledMetrics.Store(m) }

// Metrics returns the installed engine metrics, nil when disabled. All
// EngineMetrics methods and counter updates are nil-safe, so callers use
// the result unconditionally.
func Metrics() *EngineMetrics { return enabledMetrics.Load() }
