package kpj

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"kpj/internal/core"
	"kpj/internal/fault"
	"kpj/internal/obs"
)

// runBatchItem executes one batch item. A panic escaping the engine is
// converted into an ErrWorkerPanic-wrapping truncated result instead of
// killing the whole batch; the BatchWorker fault point can fail the item
// before the query starts, with that error and no paths.
func runBatchItem(g *Graph, fn core.Func, q core.Query, opt core.Options) (paths []Path, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			paths, err = finishQuery(nil, fmt.Errorf("%w: %v", ErrWorkerPanic, rec))
		}
	}()
	if ferr := fault.Hit(fault.BatchWorker); ferr != nil {
		return finishQuery(nil, ferr)
	}
	return finishQuery(fn(g.g, q, opt))
}

// BatchQuery is one query of a batch: the k shortest simple paths from any
// of Sources to any of Targets.
type BatchQuery struct {
	Sources []NodeID
	Targets []NodeID
	K       int
}

// BatchResult carries the outcome for the query at the same index. An
// interrupted query (context or budget) has both fields set: Paths holds
// the partial results and Err is the *TruncatedError describing why.
type BatchResult struct {
	Paths []Path
	Err   error
}

// Batch answers many queries concurrently over one graph, using up to
// `parallelism` workers (≤ 0 means GOMAXPROCS). Each worker draws a
// scratch workspace from the graph's pool and reuses it across the
// queries it processes, so large batches avoid the per-query allocation
// cost entirely. Results align with the input by index. When opt.Stats is
// set, the workers' counters are merged into it after all queries finish.
// When opt.Trace is set, each query is traced into its own buffer and the
// buffers are written to the trace writer in input-index order after all
// queries finish — the merged trace is deterministic and identical to
// running the queries sequentially, regardless of worker scheduling; each
// item's trace is preceded by a "batch item #i" header line.
//
// opt.Context applies per query — every in-flight query stops within a
// few hundred heap pops of cancellation with partial results — and to
// scheduling: once the context is done, queries not yet started are not
// run at all and report an ErrCanceled-wrapping error. A context that is
// already done returns immediately without launching workers.
// Options.Budget, in contrast, is a fresh per-query allowance.
func (g *Graph) Batch(queries []BatchQuery, parallelism int, opt *Options) []BatchResult {
	results := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return results
	}
	copt, fn, err := opt.coreOptions(g)
	if err != nil {
		for i := range results {
			results[i].Err = err
		}
		return results
	}
	// Tracing would interleave across workers; instead each item traces
	// into its own buffer, merged in index order after the wait below.
	copt.Trace = nil
	var traces []bytes.Buffer
	if opt != nil && opt.Trace != nil {
		traces = make([]bytes.Buffer, len(queries))
	}
	skipErr := func() error {
		return fmt.Errorf("%w: batch item not started: %v",
			ErrCanceled, context.Cause(copt.Context))
	}
	done := func() bool {
		if copt.Context == nil {
			return false
		}
		select {
		case <-copt.Context.Done():
			return true
		default:
			return false
		}
	}
	if done() {
		// Already canceled: report every item without launching workers.
		for i := range results {
			results[i].Err = skipErr()
		}
		return results
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(queries) {
		parallelism = len(queries)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex // guards the merged stats
	var merged Stats
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		// Inter-query fan-out: each worker claims whole queries and writes
		// only results[i]; every query's output is computed independently,
		// so scheduling never reaches it (TestBatchMatchesSequential).
		go func() {
			defer wg.Done()
			workerOpt := copt
			workerOpt.Workspace = g.getWorkspace()
			defer g.putWorkspace(workerOpt.Workspace)
			var st Stats
			// With engine metrics enabled each query runs against a
			// per-query scratch Stats so its work can be observed
			// individually, then folds into the worker total; otherwise
			// queries accumulate straight into the worker total (or skip
			// stats entirely when the caller asked for none).
			var qst Stats
			perQuery := core.Metrics() != nil
			switch {
			case perQuery:
				workerOpt.Stats = &qst
			case copt.Stats != nil:
				workerOpt.Stats = &st
			default:
				workerOpt.Stats = nil
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					break
				}
				if done() {
					// Stop scheduling: mark remaining items canceled
					// without paying for their searches.
					results[i].Err = skipErr()
					continue
				}
				bq := queries[i]
				q := core.Query{Sources: dedupe(bq.Sources), Targets: dedupe(bq.Targets), K: bq.K}
				if traces != nil {
					workerOpt.Trace = traceWriter(&traces[i], g.NumNodes())
				}
				results[i].Paths, results[i].Err = runBatchItem(g, fn, q, workerOpt)
				if perQuery {
					observeQuery(&qst, copt.Budget, results[i].Err)
					st.Add(qst)
					qst = Stats{}
				}
			}
			if copt.Stats != nil {
				mu.Lock()
				merged.Add(st)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if opt != nil && opt.Stats != nil {
		opt.Stats.Add(merged)
	}
	if traces != nil {
		endMerge := copt.Spans.Start(obs.PhaseMerge, len(queries))
		for i := range traces {
			fmt.Fprintf(opt.Trace, "batch item #%d\n", i)
			io.Copy(opt.Trace, &traces[i])
		}
		endMerge(int64(len(queries)))
	}
	return results
}
