package kpj_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"kpj"
)

// Metamorphic properties of bounded execution: instead of asserting
// specific outputs, these tests relate runs of the SAME query at different
// budgets. For every engine:
//
//  1. Prefix: a budget-truncated result is a prefix (paths, not just
//     lengths) of the unbounded result.
//  2. Monotonicity: both the number of paths found and the work performed
//     (heap pops + edge relaxations) are non-decreasing in the budget.

// metamorphicQuery is a corner-to-set query on a jittered grid — hard
// enough that small budgets genuinely truncate it.
func metamorphicQuery(t testing.TB) (*kpj.Graph, []kpj.NodeID, []kpj.NodeID, int) {
	g := boundGrid(t, 12, 12, 1)
	sources := []kpj.NodeID{0}
	targets := []kpj.NodeID{143, 131, 77}
	return g, sources, targets, 12
}

func pathsEqual(a, b kpj.Path) bool {
	if a.Length != b.Length || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return true
}

func TestBudgetTruncationIsPrefix(t *testing.T) {
	g, sources, targets, k := metamorphicQuery(t)
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			full, err := g.TopKJoinSets(sources, targets, k, &kpj.Options{Algorithm: alg})
			if err != nil {
				t.Fatalf("unbounded: %v", err)
			}
			if len(full) != k {
				t.Fatalf("unbounded found %d/%d paths", len(full), k)
			}
			for _, budget := range []int64{50, 200, 1000, 5000, 20000, 1 << 40} {
				opt := &kpj.Options{Algorithm: alg, Budget: budget}
				paths, err := g.TopKJoinSets(sources, targets, k, opt)
				if err != nil && !errors.Is(err, kpj.ErrBudgetExceeded) {
					t.Fatalf("budget %d: %v", budget, err)
				}
				if err == nil && len(paths) != k {
					t.Fatalf("budget %d: no error but %d/%d paths", budget, len(paths), k)
				}
				if len(paths) > len(full) {
					t.Fatalf("budget %d: %d paths, more than unbounded %d", budget, len(paths), len(full))
				}
				for i := range paths {
					if !pathsEqual(paths[i], full[i]) {
						t.Fatalf("budget %d: path %d = %v, want prefix of unbounded (%v)",
							budget, i, paths[i], full[i])
					}
				}
			}
		})
	}
}

func TestBudgetMonotonicity(t *testing.T) {
	g, sources, targets, k := metamorphicQuery(t)
	budgets := []int64{25, 100, 400, 1600, 6400, 25600, 102400, 1 << 40}
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			prevPaths, prevWork := -1, int64(-1)
			for _, budget := range budgets {
				var st kpj.Stats
				opt := &kpj.Options{Algorithm: alg, Budget: budget, Stats: &st}
				paths, err := g.TopKJoinSets(sources, targets, k, opt)
				if err != nil && !errors.Is(err, kpj.ErrBudgetExceeded) {
					t.Fatalf("budget %d: %v", budget, err)
				}
				work := st.NodesPopped + st.EdgesRelaxed
				if len(paths) < prevPaths {
					t.Fatalf("budget %d found %d paths, smaller budget found %d", budget, len(paths), prevPaths)
				}
				if work < prevWork {
					t.Fatalf("budget %d performed %d work units, smaller budget performed %d", budget, work, prevWork)
				}
				prevPaths, prevWork = len(paths), work
			}
			if prevPaths != k {
				t.Fatalf("largest budget still truncated: %d/%d paths", prevPaths, k)
			}
		})
	}
}

// TestEngineMetricsObserveQueries: with metrics enabled, completed,
// truncated, and failed queries land in the right counters, the work
// counters advance, and budget-capped work feeds the drain counter. Also
// a monotonicity check at the metrics level: each further query can only
// grow every counter.
func TestEngineMetricsObserveQueries(t *testing.T) {
	reg := kpj.NewMetricsRegistry()
	kpj.EnableMetrics(reg)
	defer kpj.EnableMetrics(nil)
	g, sources, targets, k := metamorphicQuery(t)

	counter := func(name string) int64 {
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var v int64
		found := false
		for _, line := range strings.Split(buf.String(), "\n") {
			var n int64
			if _, err := fmt.Sscanf(line, name+" %d", &n); err == nil {
				v, found = n, true
			}
		}
		if !found {
			t.Fatalf("metric %s not exposed", name)
		}
		return v
	}

	if _, err := g.TopKJoinSets(sources, targets, k, nil); err != nil {
		t.Fatal(err)
	}
	if got := counter("kpj_engine_queries_total"); got != 1 {
		t.Fatalf("queries_total = %d after one query", got)
	}
	if counter("kpj_engine_heap_pops_total") == 0 {
		t.Fatal("heap pops not recorded")
	}
	if got := counter("kpj_engine_queries_truncated_total"); got != 0 {
		t.Fatalf("truncated_total = %d before any truncation", got)
	}

	// A budget-truncated query: truncated + budget drain move, errors don't.
	_, err := g.TopKJoinSets(sources, targets, k, &kpj.Options{Budget: 100})
	if !errors.Is(err, kpj.ErrBudgetExceeded) {
		t.Fatalf("tiny budget: %v", err)
	}
	if got := counter("kpj_engine_queries_truncated_total"); got != 1 {
		t.Fatalf("truncated_total = %d after truncation", got)
	}
	if counter("kpj_engine_budget_drained_total") == 0 {
		t.Fatal("budget drain not recorded")
	}
	if got := counter("kpj_engine_query_errors_total"); got != 0 {
		t.Fatalf("errors_total = %d: truncation is not a failure", got)
	}

	// An invalid query counts as an error, not a truncation.
	if _, err := g.TopKJoinSets(nil, targets, k, nil); err == nil {
		t.Fatal("empty sources accepted")
	}
	if got := counter("kpj_engine_query_errors_total"); got != 1 {
		t.Fatalf("errors_total = %d after invalid query", got)
	}

	// Counter-level monotonicity under a budget sweep.
	names := []string{
		"kpj_engine_queries_total", "kpj_engine_heap_pops_total",
		"kpj_engine_edges_relaxed_total", "kpj_engine_budget_drained_total",
	}
	prev := map[string]int64{}
	for _, n := range names {
		prev[n] = counter(n)
	}
	for _, budget := range []int64{50, 500, 5000} {
		g.TopKJoinSets(sources, targets, k, &kpj.Options{Budget: budget})
		for _, n := range names {
			if got := counter(n); got < prev[n] {
				t.Fatalf("%s decreased: %d -> %d", n, prev[n], got)
			} else {
				prev[n] = got
			}
		}
	}
}
