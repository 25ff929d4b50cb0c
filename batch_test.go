package kpj_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"kpj"
	"kpj/internal/leaktest"
)

func batchFixture(t *testing.T) (*kpj.Graph, *kpj.Index, []kpj.BatchQuery) {
	t.Helper()
	g := cityGrid(t, 30, 30, 9)
	if err := g.AddCategory("poi", []kpj.NodeID{17, 404, 871}); err != nil {
		t.Fatal(err)
	}
	ix, err := kpj.BuildIndex(g, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := g.Category("poi")
	if err != nil {
		t.Fatal(err)
	}
	var queries []kpj.BatchQuery
	for s := kpj.NodeID(0); int(s) < g.NumNodes(); s += 37 {
		queries = append(queries, kpj.BatchQuery{Sources: []kpj.NodeID{s}, Targets: targets, K: 6})
	}
	return g, ix, queries
}

func TestBatchMatchesSequential(t *testing.T) {
	g, ix, queries := batchFixture(t)
	opt := &kpj.Options{Index: ix}
	got := g.Batch(queries, 4, opt)
	if len(got) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(got), len(queries))
	}
	for i, q := range queries {
		if got[i].Err != nil {
			t.Fatalf("query %d: %v", i, got[i].Err)
		}
		want, err := g.TopKJoinSets(q.Sources, q.Targets, q.K, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Paths, want) {
			t.Fatalf("query %d: batch and sequential disagree", i)
		}
	}
}

func TestBatchMixedErrors(t *testing.T) {
	g, ix, queries := batchFixture(t)
	bad := kpj.BatchQuery{Sources: []kpj.NodeID{0}, Targets: nil, K: 3}
	mixed := append([]kpj.BatchQuery{bad}, queries[:3]...)
	res := g.Batch(mixed, 2, &kpj.Options{Index: ix})
	if res[0].Err == nil {
		t.Fatal("invalid query must fail")
	}
	for i := 1; i < len(res); i++ {
		if res[i].Err != nil {
			t.Fatalf("valid query %d failed: %v", i, res[i].Err)
		}
	}
}

func TestBatchEmptyAndDefaults(t *testing.T) {
	g, _, queries := batchFixture(t)
	if res := g.Batch(nil, 0, nil); len(res) != 0 {
		t.Fatal("empty batch must return empty results")
	}
	// parallelism <= 0 defaults to GOMAXPROCS; nil options default too.
	res := g.Batch(queries[:2], 0, nil)
	for i, r := range res {
		if r.Err != nil || len(r.Paths) == 0 {
			t.Fatalf("result %d: %v", i, r)
		}
	}
	// Bad algorithm fails every query up front.
	res = g.Batch(queries[:2], 2, &kpj.Options{Algorithm: kpj.Algorithm(99)})
	for _, r := range res {
		if r.Err == nil {
			t.Fatal("unknown algorithm must fail all queries")
		}
	}
}

func TestBatchStatsMerged(t *testing.T) {
	g, ix, queries := batchFixture(t)
	var st kpj.Stats
	res := g.Batch(queries, 3, &kpj.Options{Index: ix, Stats: &st})
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if st.NodesPopped == 0 || st.Searches == 0 {
		t.Fatalf("merged stats empty: %+v", st)
	}
}

// Queries on one Graph + Index must be safe to run concurrently (run with
// -race to verify).
func TestConcurrentQueriesSharedGraph(t *testing.T) {
	g, ix, queries := batchFixture(t)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, q := range queries[:6] {
				if _, err := g.TopKJoinSets(q.Sources, q.Targets, q.K, &kpj.Options{Index: ix}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBatchContextPreCanceled(t *testing.T) {
	g, ix, queries := batchFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := g.Batch(queries, 4, &kpj.Options{Index: ix, Context: ctx})
	if len(res) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(res), len(queries))
	}
	for i, r := range res {
		if !errors.Is(r.Err, kpj.ErrCanceled) {
			t.Fatalf("item %d: err = %v, want ErrCanceled (no worker should have run)", i, r.Err)
		}
		if len(r.Paths) != 0 {
			t.Fatalf("item %d: unstarted query has %d paths", i, len(r.Paths))
		}
	}
}

func TestBatchContextMidCancel(t *testing.T) {
	defer leaktest.Check(t)()
	g, ix, queries := batchFixture(t)
	// Inflate the work per query so cancellation lands mid-batch.
	big := make([]kpj.BatchQuery, 0, len(queries)*4)
	for i := 0; i < 4; i++ {
		for _, q := range queries {
			q.K = 200
			big = append(big, q)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := g.Batch(big, 4, &kpj.Options{Index: ix, Context: ctx})
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("canceled batch took %v", elapsed)
	}
	var done, truncated, skipped int
	for i, r := range res {
		switch {
		case r.Err == nil:
			done++
		case errors.Is(r.Err, kpj.ErrCanceled):
			if _, ok := kpj.Truncated(r.Err); ok {
				truncated++
			} else {
				skipped++
			}
		default:
			t.Fatalf("item %d: unexpected error %v", i, r.Err)
		}
	}
	t.Logf("batch after cancel: %d done, %d truncated, %d skipped", done, truncated, skipped)
	if done == len(res) {
		t.Skip("batch finished before cancellation; nothing to assert")
	}
}

// TestBatchTruncatedItemsCarryPartialResults: per-item budgets degrade
// items independently instead of failing the batch.
func TestBatchTruncatedItemsCarryPartialResults(t *testing.T) {
	g, ix, queries := batchFixture(t)
	res := g.Batch(queries, 3, &kpj.Options{Index: ix, Budget: 2000})
	var truncated int
	for i, r := range res {
		if r.Err == nil {
			continue
		}
		if !errors.Is(r.Err, kpj.ErrBudgetExceeded) {
			t.Fatalf("item %d: err = %v, want ErrBudgetExceeded", i, r.Err)
		}
		partial, ok := kpj.Truncated(r.Err)
		if !ok {
			t.Fatalf("item %d: budget error is not a TruncatedError: %v", i, r.Err)
		}
		if len(partial) != len(r.Paths) {
			t.Fatalf("item %d: error carries %d paths, result %d", i, len(partial), len(r.Paths))
		}
		truncated++
	}
	if truncated == 0 {
		t.Skip("budget generous enough for every item; nothing truncated")
	}
}
