package kpj_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
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
// items independently instead of failing the batch. The budget is the
// median of the items' clean work (NodesPopped + EdgesRelaxed), so the
// lighter items complete exactly and the heavier ones truncate, each to
// a proper prefix of its clean answer.
func TestBatchTruncatedItemsCarryPartialResults(t *testing.T) {
	g, ix, queries := batchFixture(t)
	clean := make([][]kpj.Path, len(queries))
	work := make([]int64, len(queries))
	for i, q := range queries {
		var st kpj.Stats
		paths, err := g.TopKJoinSets(q.Sources, q.Targets, q.K, &kpj.Options{Index: ix, Stats: &st})
		if err != nil {
			t.Fatalf("clean query %d: %v", i, err)
		}
		clean[i], work[i] = paths, st.NodesPopped+st.EdgesRelaxed
	}
	sorted := slices.Clone(work)
	slices.Sort(sorted)
	budget := sorted[len(sorted)/2]

	res := g.Batch(queries, 3, &kpj.Options{Index: ix, Budget: budget})
	var truncated, complete int
	for i, r := range res {
		if r.Err == nil {
			if !reflect.DeepEqual(r.Paths, clean[i]) {
				t.Fatalf("item %d (work %d, budget %d): complete but differs from its clean answer", i, work[i], budget)
			}
			complete++
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
		if n := len(r.Paths); n >= len(clean[i]) || !reflect.DeepEqual(r.Paths, clean[i][:n]) {
			t.Fatalf("item %d (work %d, budget %d): %d truncated paths are not a proper prefix of its %d clean ones",
				i, work[i], budget, n, len(clean[i]))
		}
		truncated++
	}
	if truncated == 0 || complete == 0 {
		t.Fatalf("budget %d over clean work %v: %d truncated, %d complete; want both", budget, work, truncated, complete)
	}
}

// TestBatchTraceMerge: a traced batch must produce, regardless of worker
// scheduling, each item's full sequential trace under a "batch item #i"
// header, in input order.
func TestBatchTraceMerge(t *testing.T) {
	g := cityGrid(t, 15, 15, 9)
	targets := []kpj.NodeID{10, 101, 210}
	queries := make([]kpj.BatchQuery, 6)
	for i := range queries {
		queries[i] = kpj.BatchQuery{
			Sources: []kpj.NodeID{kpj.NodeID(i * 31)},
			Targets: targets,
			K:       5,
		}
	}
	var batchTrace bytes.Buffer
	results := g.Batch(queries, 4, &kpj.Options{Trace: &batchTrace})
	var want bytes.Buffer
	for i, q := range queries {
		if results[i].Err != nil {
			t.Fatalf("item %d: %v", i, results[i].Err)
		}
		fmt.Fprintf(&want, "batch item #%d\n", i)
		var one bytes.Buffer
		if _, err := g.TopKJoinSets(q.Sources, q.Targets, q.K, &kpj.Options{Trace: &one}); err != nil {
			t.Fatalf("sequential item %d: %v", i, err)
		}
		want.Write(one.Bytes())
	}
	if batchTrace.String() != want.String() {
		t.Fatalf("batch trace differs from per-item sequential traces\n got:\n%s\nwant:\n%s",
			batchTrace.String(), want.String())
	}
}
