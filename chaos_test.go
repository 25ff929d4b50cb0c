package kpj_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"kpj"
	"kpj/internal/bruteforce"
	"kpj/internal/fault"
	"kpj/internal/flatindex"
	"kpj/internal/leaktest"
)

// This file is the chaos suite: the oracle cases of oracle_test.go
// replayed under seeded work budgets and, at the batch worker, seeded
// fault-injection schedules (internal/fault). The engine itself does no
// I/O and has no fault point, so a query's answer is shortened only by a
// budget, a deadline or a recovered panic. The invariant under ANY
// schedule is the failure contract:
//
//   - a clean finish returns exactly the oracle answer;
//   - a budget trip or a recovered panic surfaces as a *TruncatedError
//     whose paths are a valid prefix of the oracle answer (never a wrong
//     or invalid path); an injected batch-worker error fails its item
//     with no paths;
//   - no goroutine leaks, no process death, and engine metrics stay
//     consistent with the number of queries issued.
//
// Every schedule derives from one integer seed, so a failure here
// reproduces bit-identically from the seed in its subtest name.

// chaosInstall installs a fault registry for the duration of the test.
// Chaos tests must not run in parallel (the registry is process-wide), so
// none of them call t.Parallel.
func chaosInstall(t *testing.T, r *fault.Registry) {
	t.Helper()
	fault.Install(r)
	t.Cleanup(func() { fault.Install(nil) })
}

// chaosBudgetCap bounds the seeded budgets: above the largest budget an
// oracle case needs to complete (524 units, DA on case012), so schedules
// mix truncated and complete answers.
const chaosBudgetCap = 640

// classifyChaos checks one query outcome against the contract and returns
// its class ("correct", "truncated", "error"); any violation fails the
// test. want is the oracle answer.
func classifyChaos(t *testing.T, c oracleCase, alg kpj.Algorithm,
	paths []kpj.Path, err error, want []bruteforce.Path) string {
	t.Helper()
	if err == nil {
		if len(paths) != len(want) {
			t.Fatalf("%s: clean finish with %d paths, oracle has %d", alg, len(paths), len(want))
		}
		for i, p := range paths {
			if p.Length != want[i].Length {
				t.Fatalf("%s: path %d length %d, oracle %d", alg, i, p.Length, want[i].Length)
			}
			validateOraclePath(t, c, alg, p)
		}
		return "correct"
	}
	if errors.Is(err, fault.ErrInjected) {
		// An injected batch-worker error fails its item before the query
		// runs: no paths, no truncation wrapper.
		if _, ok := kpj.Truncated(err); ok || len(paths) != 0 {
			t.Fatalf("%s: injected error %v alongside %d paths", alg, err, len(paths))
		}
		return "error"
	}
	if !errors.Is(err, kpj.ErrBudgetExceeded) && !errors.Is(err, kpj.ErrWorkerPanic) {
		t.Fatalf("%s: error is neither a budget trip nor a recovered panic: %v", alg, err)
	}
	partial, ok := kpj.Truncated(err)
	if !ok {
		t.Fatalf("%s: %v is not a TruncatedError", alg, err)
	}
	if len(partial) != len(paths) {
		t.Fatalf("%s: error carries %d paths, return carries %d", alg, len(partial), len(paths))
	}
	if len(paths) > len(want) {
		t.Fatalf("%s: truncated result has %d paths, oracle only %d", alg, len(paths), len(want))
	}
	for i, p := range paths {
		if p.Length != want[i].Length {
			t.Fatalf("%s: truncated path %d length %d, oracle prefix wants %d",
				alg, i, p.Length, want[i].Length)
		}
		validateOraclePath(t, c, alg, p)
	}
	return "truncated"
}

// TestChaosOracleSchedules replays oracle cases under seeded budgets: 60
// schedules, each a fresh case run through every algorithm, each run with
// its own budget drawn from the schedule's seed. Every outcome must
// classify cleanly, the schedules must mix complete and truncated
// answers, and no schedule may leak a goroutine.
func TestChaosOracleSchedules(t *testing.T) {
	schedules := 60
	if testing.Short() {
		schedules = 12
	}
	counts := map[string]int{}
	for seed := 0; seed < schedules; seed++ {
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			defer leaktest.Check(t)()
			c := oracleCaseFor(t, seed%20)
			want := oracleAnswer(c)
			opt := oracleOptions(t, c)
			rng := rand.New(rand.NewSource(int64(seed)))
			for _, alg := range allAlgorithms {
				o := opt
				o.Algorithm = alg
				o.Budget = 1 + rng.Int63n(chaosBudgetCap)
				paths, err := watchdogQuery(t, c, &o)
				counts[classifyChaos(t, c, alg, paths, err, want)]++
			}
		})
	}
	t.Logf("chaos outcomes over %d schedules: %v", schedules, counts)
	if counts["correct"] == 0 || counts["truncated"] == 0 {
		t.Fatalf("degenerate chaos sweep (no mix of outcomes): %v", counts)
	}
}

// TestChaosBatchSchedules replays a batch of oracle queries under a
// seeded budget and a seeded schedule at the batch.worker point: an
// injected error fails only its item, an injected panic is recovered into
// that item's truncated result, and every other item answers in full or
// as a budget-truncated prefix — never a wrong result.
func TestChaosBatchSchedules(t *testing.T) {
	schedules := 12
	if testing.Short() {
		schedules = 4
	}
	counts := map[string]int{}
	for seed := 0; seed < schedules; seed++ {
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			defer leaktest.Check(t)()
			c := oracleCaseFor(t, seed%20)
			want := oracleAnswer(c)
			queries := make([]kpj.BatchQuery, 6)
			for i := range queries {
				queries[i] = kpj.BatchQuery{Sources: c.sources, Targets: c.targets, K: c.k}
			}
			rng := rand.New(rand.NewSource(int64(1000 + seed)))
			opt := kpj.Options{Budget: 1 + rng.Int63n(chaosBudgetCap)}
			chaosInstall(t, fault.New().Add(fault.Plan(int64(1000+seed), fault.PlanConfig{
				Points: []fault.Point{fault.BatchWorker},
				Rules:  2,
				MaxHit: 6,
			})...))
			results := c.g.Batch(queries, 2, &opt)
			fault.Install(nil)
			for _, r := range results {
				counts[classifyChaos(t, c, kpj.IterBoundSPTI, r.Paths, r.Err, want)]++
			}
		})
	}
	t.Logf("batch chaos outcomes over %d schedules: %v", schedules, counts)
	if counts["correct"] == 0 || counts["truncated"] == 0 {
		t.Fatalf("degenerate batch chaos sweep (no mix of outcomes): %v", counts)
	}
}

// TestBatchWorkerErrorFailsItemOnce: an error injected at batch.worker
// fails that item once — its error wraps fault.ErrInjected, it carries no
// paths and no truncation wrapper, the point is hit once per item (no
// retry) — and the other items answer in full.
func TestBatchWorkerErrorFailsItemOnce(t *testing.T) {
	defer leaktest.Check(t)()
	c := oracleCaseFor(t, 1)
	want := oracleAnswer(c)
	chaosInstall(t, fault.New().Add(
		fault.Rule{Point: fault.BatchWorker, Nth: 1, Count: 1, Kind: fault.KindError}))
	queries := make([]kpj.BatchQuery, 3)
	for i := range queries {
		queries[i] = kpj.BatchQuery{Sources: c.sources, Targets: c.targets, K: c.k}
	}
	results := c.g.Batch(queries, 1, nil)
	if err := results[0].Err; !errors.Is(err, fault.ErrInjected) || results[0].Paths != nil {
		t.Fatalf("item 0: err = %v with %d paths, want fault.ErrInjected and none", err, len(results[0].Paths))
	}
	if _, ok := kpj.Truncated(results[0].Err); ok {
		t.Fatalf("item 0: injected error wrapped as a truncation: %v", results[0].Err)
	}
	for i, r := range results[1:] {
		if r.Err != nil || len(r.Paths) != len(want) {
			t.Fatalf("item %d: err = %v with %d paths, oracle %d", i+1, r.Err, len(r.Paths), len(want))
		}
	}
	if hits := fault.Active().Hits(fault.BatchWorker); hits != int64(len(queries)) {
		t.Fatalf("batch.worker hit %d times for %d items, want one hit per item", hits, len(queries))
	}
}

// TestBatchWorkerPanicContained: a panic injected into one batch item is
// recovered per item — the other items complete normally.
func TestBatchWorkerPanicContained(t *testing.T) {
	defer leaktest.Check(t)()
	c := oracleCaseFor(t, 1)
	want := oracleAnswer(c)
	chaosInstall(t, fault.New().Add(
		fault.Rule{Point: fault.BatchWorker, Nth: 2, Count: 1, Kind: fault.KindPanic}))
	queries := make([]kpj.BatchQuery, 3)
	for i := range queries {
		queries[i] = kpj.BatchQuery{Sources: c.sources, Targets: c.targets, K: c.k}
	}
	results := c.g.Batch(queries, 1, nil)
	var panicked, clean int
	for _, r := range results {
		if r.Err == nil {
			clean++
			if len(r.Paths) != len(want) {
				t.Fatalf("clean item has %d paths, oracle %d", len(r.Paths), len(want))
			}
			continue
		}
		if !errors.Is(r.Err, kpj.ErrWorkerPanic) {
			t.Fatalf("unexpected item error: %v", r.Err)
		}
		panicked++
	}
	if panicked != 1 || clean != 2 {
		t.Fatalf("panicked=%d clean=%d, want 1/2", panicked, clean)
	}
}

// TestFaultPointsLoadPaths: a read that fails partway, or a flat payload
// cut short, surfaces as an ordinary typed error from the loader (no
// partial state, no panic).
func TestFaultPointsLoadPaths(t *testing.T) {
	defer leaktest.Check(t)()
	c := oracleCaseFor(t, 2)

	readErr := errors.New("disk gone")
	r := io.MultiReader(strings.NewReader("p sp 2 1\n"), iotest.ErrReader(readErr))
	if g, err := kpj.ReadGraph(r); !errors.Is(err, readErr) || g != nil {
		t.Fatalf("failing reader: g = %v, err = %v, want the reader's error", g, err)
	}

	ix, err := kpj.BuildIndex(c.g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := kpj.WriteFlat(&buf, c.g, ix); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if g, ix, err := kpj.ReadFlat(bytes.NewReader(full[:len(full)-1])); !errors.Is(err, flatindex.ErrFormat) || g != nil || ix != nil {
		t.Fatalf("truncated flat payload: err = %v, want flatindex.ErrFormat and nothing loaded", err)
	}
	if _, _, err := kpj.ReadFlat(bytes.NewReader(full)); err != nil {
		t.Fatalf("full flat payload: %v", err)
	}
}

// watchdogLimit is how long one oracle-case query may run before the
// suite calls it a livelock: a clean one takes well under a millisecond,
// even under -race, while a loop that stopped charging its Bound never
// returns.
const watchdogLimit = 5 * time.Second

// watchdogQuery runs one query of c under a watchdog, so a livelocked
// engine fails the test within seconds rather than at the test binary's
// timeout. The livelocked goroutine cannot be stopped — it polls no
// bound, so no context reaches it — and spins until the binary exits.
func watchdogQuery(t *testing.T, c oracleCase, opt *kpj.Options) ([]kpj.Path, error) {
	t.Helper()
	type answer struct {
		paths []kpj.Path
		err   error
	}
	done := make(chan answer, 1)
	go func() {
		paths, err := c.g.TopKJoinSets(c.sources, c.targets, c.k, opt)
		done <- answer{paths, err}
	}()
	timer := time.NewTimer(watchdogLimit)
	defer timer.Stop()
	select {
	case a := <-done:
		return a.paths, a.err
	case <-timer.C:
		t.Fatalf("%s %s budget=%d: no answer within %v: the engine livelocks",
			c.name, opt.Algorithm, opt.Budget, watchdogLimit)
		return nil, nil
	}
}

// budgetSweep runs opt.Algorithm over c at every budget from 1 up to the
// smallest budget at which the query completes, and asserts the
// truncation contract at each: a budget trip returns a *TruncatedError
// wrapping ErrBudgetExceeded whose paths are an exact prefix of the clean
// answer (itself checked against the oracle), prefixes never shrink as
// the budget grows, and the completing run returns the clean answer. It
// returns that smallest completing budget with the clean run's Stats and
// trace text.
func budgetSweep(t *testing.T, c oracleCase, opt kpj.Options, want []bruteforce.Path) (int64, kpj.Stats, string) {
	t.Helper()
	alg := opt.Algorithm
	var st kpj.Stats
	var trace strings.Builder
	o := opt
	o.Stats, o.Trace = &st, &trace
	clean, err := watchdogQuery(t, c, &o)
	if err != nil {
		t.Fatalf("%s %s clean run: %v", c.name, alg, err)
	}
	classifyChaos(t, c, alg, clean, nil, want)
	const limit = 1 << 12
	prev := 0
	for budget := int64(1); budget <= limit; budget++ {
		o := opt
		o.Budget = budget
		paths, err := watchdogQuery(t, c, &o)
		if len(paths) > len(clean) {
			t.Fatalf("%s %s budget=%d: %d paths, clean has %d", c.name, alg, budget, len(paths), len(clean))
		}
		for i, p := range paths {
			if !pathsEqual(p, clean[i]) {
				t.Fatalf("%s %s budget=%d: path %d = %v, want the clean answer's %v",
					c.name, alg, budget, i, p, clean[i])
			}
		}
		if err == nil {
			if len(paths) != len(clean) {
				t.Fatalf("%s %s budget=%d: nil error with %d paths, clean has %d",
					c.name, alg, budget, len(paths), len(clean))
			}
			return budget, st, trace.String()
		}
		if partial, ok := kpj.Truncated(err); !ok || !errors.Is(err, kpj.ErrBudgetExceeded) || len(partial) != len(paths) {
			t.Fatalf("%s %s budget=%d: err = %v, want a TruncatedError wrapping ErrBudgetExceeded",
				c.name, alg, budget, err)
		}
		if len(paths) < prev {
			t.Fatalf("%s %s budget=%d: prefix shrank from %d to %d as the budget grew",
				c.name, alg, budget, prev, len(paths))
		}
		prev = len(paths)
	}
	t.Fatalf("%s %s: still truncated at budget %d", c.name, alg, limit)
	return 0, st, ""
}

// TestTruncatedPrefixMidSPTGrowth: the rows that grow a shortest path
// tree (SPT_I, SPT_P, DA-SPT's full tree), swept over every budget on
// every oracle case. Growth is each row's first work, so the smallest
// budgets trip mid-growth; every budget yields a valid, monotone prefix.
func TestTruncatedPrefixMidSPTGrowth(t *testing.T) {
	defer leaktest.Check(t)()
	for i := 0; i < 20; i++ {
		c := oracleCaseFor(t, i)
		want := oracleAnswer(c)
		opt := oracleOptions(t, c)
		for _, alg := range []kpj.Algorithm{kpj.IterBoundSPTI, kpj.IterBoundSPTP, kpj.DASPT} {
			opt.Algorithm = alg
			if _, st, _ := budgetSweep(t, c, opt, want); st.SPTNodes == 0 {
				t.Fatalf("%s %s: the clean run settled no tree node; the sweep crossed no growth", c.name, alg)
			}
		}
	}
}

// TestTruncatedPrefixMidResolve: every row swept over every budget on
// every oracle case yields a valid, monotone prefix, and the sweep's
// smallest completing budget balances the budget's ledger: the heap pops
// and edge relaxations Stats counts, plus one unit per main-loop round.
// The rounds are read off the clean run's trace: each one either emits a
// path or (IterBound, BestFirst) resolves a popped subspace. DA and
// DA-SPT queue only subspaces they have already resolved exactly, so
// their resolves all happen at division time and every main-loop round
// emits exactly one path.
func TestTruncatedPrefixMidResolve(t *testing.T) {
	defer leaktest.Check(t)()
	for i := 0; i < 20; i++ {
		c := oracleCaseFor(t, i)
		want := oracleAnswer(c)
		opt := oracleOptions(t, c)
		for _, alg := range allAlgorithms {
			opt.Algorithm = alg
			minBudget, st, trace := budgetSweep(t, c, opt, want)
			rounds := int64(strings.Count(trace, "emit "))
			if alg != kpj.DA && alg != kpj.DASPT {
				rounds += int64(strings.Count(trace, "resolve "))
			}
			ledger := st.NodesPopped + st.EdgesRelaxed + rounds
			if ledger == 0 {
				ledger = 1 // budget 0 means unlimited; 1 is the smallest sweep step
			}
			if minBudget != ledger {
				t.Fatalf("%s %s: smallest completing budget %d, want %d pops + %d relaxations + %d main-loop rounds",
					c.name, alg, minBudget, st.NodesPopped, st.EdgesRelaxed, rounds)
			}
		}
	}
}

// TestChaosMetricsConsistent: engine metrics must stay coherent under
// seeded budgets — every query counts exactly once, every budget trip the
// caller saw counts as truncated, and no query counts as failed.
func TestChaosMetricsConsistent(t *testing.T) {
	defer leaktest.Check(t)()
	reg := kpj.NewMetricsRegistry()
	kpj.EnableMetrics(reg)
	defer kpj.EnableMetrics(nil)

	c := oracleCaseFor(t, 1)
	const runs = 40
	rng := rand.New(rand.NewSource(1))
	sawTruncated := 0
	for seed := 0; seed < runs; seed++ {
		alg := allAlgorithms[seed%len(allAlgorithms)]
		opt := kpj.Options{Algorithm: alg, Budget: 1 + rng.Int63n(chaosBudgetCap)}
		if _, err := watchdogQuery(t, c, &opt); err != nil {
			if !errors.Is(err, kpj.ErrBudgetExceeded) {
				t.Fatalf("%s budget=%d: %v", alg, opt.Budget, err)
			}
			sawTruncated++
		}
	}

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		t.Fatalf("parsing /debug/vars JSON: %v", err)
	}
	counter := func(name string) int64 {
		raw, ok := vars[name]
		if !ok {
			t.Fatalf("metric %q missing from registry", name)
		}
		var v int64
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("metric %q: %v", name, err)
		}
		return v
	}
	queries := counter("kpj_engine_queries_total")
	truncated := counter("kpj_engine_queries_truncated_total")
	failed := counter("kpj_engine_query_errors_total")
	if queries != runs {
		t.Fatalf("queries_total = %d, want %d", queries, runs)
	}
	if truncated != int64(sawTruncated) || failed != 0 {
		t.Fatalf("truncated %d, errors %d; want %d truncated, 0 errors", truncated, failed, sawTruncated)
	}
	if sawTruncated == 0 || sawTruncated == runs {
		t.Fatalf("degenerate budget schedule: %d of %d queries truncated", sawTruncated, runs)
	}
}
