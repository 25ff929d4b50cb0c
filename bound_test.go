package kpj_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"kpj"
	"kpj/internal/leaktest"
)

// boundGrid builds a w×h grid city with weights base..base+2;
// corner-to-corner top-k queries on it have many near-tied simple paths,
// which makes the engines do real work. A base of 2^31 puts every key
// beyond int32.
func boundGrid(t testing.TB, w, h int, base kpj.Weight) *kpj.Graph {
	t.Helper()
	b := kpj.NewBuilder(w * h)
	id := func(x, y int) kpj.NodeID { return kpj.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddBiEdge(id(x, y), id(x+1, y), base+kpj.Weight((x+y)%3))
			}
			if y+1 < h {
				b.AddBiEdge(id(x, y), id(x, y+1), base+kpj.Weight((x*y)%3))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCanceledContext: a context canceled before the query starts must
// stop every algorithm with ErrCanceled and a TruncatedError within 1024
// pops — at light weights (base 1) and at heavy ones (base 2^31), whose
// keys still run on the radix queue and must still poll the Bound.
// 3600 nodes, so a drain loop that never polls the Bound (a full SPT
// build, say) overshoots the cap.
func TestCanceledContext(t *testing.T) {
	defer leaktest.Check(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, base := range []kpj.Weight{1, 1 << 31} {
		g := boundGrid(t, 60, 60, base)
		for _, alg := range allAlgorithms {
			var st kpj.Stats
			paths, err := g.TopKJoinSets(
				[]kpj.NodeID{0}, []kpj.NodeID{kpj.NodeID(g.NumNodes() - 1)}, 50,
				&kpj.Options{Algorithm: alg, Context: ctx, Stats: &st})
			if !errors.Is(err, kpj.ErrCanceled) {
				t.Errorf("base %d %v: err = %v, want ErrCanceled", base, alg, err)
				continue
			}
			partial, ok := kpj.Truncated(err)
			if !ok {
				t.Errorf("base %d %v: error %v is not a *TruncatedError", base, alg, err)
			}
			if len(partial) != len(paths) {
				t.Errorf("base %d %v: error carries %d paths, return carries %d", base, alg, len(partial), len(paths))
			}
			if st.NodesPopped > 1024 {
				t.Errorf("base %d %v: %d pops after a pre-canceled context, want <= 1024", base, alg, st.NodesPopped)
			}
		}
	}
}

// TestCancelMidQuery: canceling while the engine runs returns promptly
// with whatever prefix was found.
func TestCancelMidQuery(t *testing.T) {
	defer leaktest.Check(t)()
	g := boundGrid(t, 40, 40, 1)
	for _, alg := range allAlgorithms {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		paths, err := g.TopKJoinSets(
			[]kpj.NodeID{0}, []kpj.NodeID{kpj.NodeID(g.NumNodes() - 1)}, 2000,
			&kpj.Options{Algorithm: alg, Context: ctx})
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			t.Logf("%v: finished all 2000 paths before the deadline (%v); nothing to assert", alg, elapsed)
			continue
		}
		if !errors.Is(err, kpj.ErrCanceled) {
			t.Errorf("%v: err = %v, want ErrCanceled", alg, err)
		}
		if elapsed > time.Second {
			t.Errorf("%v: returned after %v, want prompt cancellation", alg, elapsed)
		}
		// Any partial paths must be sorted by length (a valid prefix).
		for i := 1; i < len(paths); i++ {
			if paths[i].Length < paths[i-1].Length {
				t.Errorf("%v: partial results out of order at %d", alg, i)
			}
		}
	}
}

// TestBudgetPrefix: for every algorithm, results under any work budget
// must be an exact prefix of the unbounded answer — truncation may only
// cut the tail, never alter what is found.
func TestBudgetPrefix(t *testing.T) {
	g := boundGrid(t, 12, 12, 1)
	src := []kpj.NodeID{0}
	dst := []kpj.NodeID{kpj.NodeID(g.NumNodes() - 1)}
	const k = 30
	for _, alg := range allAlgorithms {
		full, err := g.TopKJoinSets(src, dst, k, &kpj.Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: unbounded query failed: %v", alg, err)
		}
		if len(full) != k {
			t.Fatalf("%v: unbounded query found %d/%d paths", alg, len(full), k)
		}
		sawTruncation := false
		for budget := int64(1); budget <= 1<<22; budget *= 4 {
			paths, err := g.TopKJoinSets(src, dst, k, &kpj.Options{Algorithm: alg, Budget: budget})
			if err == nil {
				if len(paths) != k {
					t.Fatalf("%v budget=%d: nil error but only %d paths", alg, budget, len(paths))
				}
				continue
			}
			sawTruncation = true
			if !errors.Is(err, kpj.ErrBudgetExceeded) {
				t.Fatalf("%v budget=%d: err = %v, want ErrBudgetExceeded", alg, budget, err)
			}
			if len(paths) >= k {
				t.Fatalf("%v budget=%d: budget error with a full result", alg, budget)
			}
			for i, p := range paths {
				if p.Length != full[i].Length {
					t.Fatalf("%v budget=%d: path %d has length %d, full answer has %d — not a prefix",
						alg, budget, i, p.Length, full[i].Length)
				}
			}
		}
		if !sawTruncation {
			t.Errorf("%v: no budget in the sweep truncated the query; sweep too generous", alg)
		}
	}
}

// TestBudgetZeroIsUnlimited: the zero value must not bound anything.
func TestBudgetZeroIsUnlimited(t *testing.T) {
	g := boundGrid(t, 8, 8, 1)
	paths, err := g.TopKJoinSets([]kpj.NodeID{0}, []kpj.NodeID{kpj.NodeID(g.NumNodes() - 1)}, 10,
		&kpj.Options{Budget: 0})
	if err != nil || len(paths) != 10 {
		t.Fatalf("zero budget: %d paths, err=%v", len(paths), err)
	}
}

// TestDeadlineBoundsLatency is the acceptance check: a 50ms deadline on a
// query engineered to take far longer must return within a small multiple
// of the deadline, for every algorithm.
func TestDeadlineBoundsLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("slow-graph latency test")
	}
	g := boundGrid(t, 100, 100, 1)
	const deadline = 50 * time.Millisecond
	for _, alg := range allAlgorithms {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, err := g.TopKJoinSets(
			[]kpj.NodeID{0}, []kpj.NodeID{kpj.NodeID(g.NumNodes() - 1)}, 5000,
			&kpj.Options{Algorithm: alg, Context: ctx})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, kpj.ErrCanceled) {
			t.Errorf("%v: err = %v after %v, want ErrCanceled (query not slow enough?)", alg, err, elapsed)
			continue
		}
		// Generous ceiling to stay robust on loaded CI machines; the
		// typical overshoot is well under 2× the deadline.
		if elapsed > 10*deadline {
			t.Errorf("%v: 50ms deadline returned after %v", alg, elapsed)
		}
	}
}
