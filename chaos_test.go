package kpj_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"kpj"
	"kpj/internal/bruteforce"
	"kpj/internal/fault"
	"kpj/internal/graph"
	"kpj/internal/leaktest"
)

// This file is the chaos suite: the oracle cases of oracle_test.go
// replayed under seeded fault-injection schedules (internal/fault). The
// invariant under ANY schedule is the failure contract:
//
//   - a clean finish returns exactly the oracle answer;
//   - an injected fault surfaces as a *TruncatedError whose paths are a
//     valid prefix of the oracle answer (never a wrong or invalid path);
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

// oracleAnswer computes the exhaustive answer for an oracle case.
func oracleAnswer(c oracleCase) []bruteforce.Path {
	ogSources := make([]graph.NodeID, len(c.sources))
	for i, s := range c.sources {
		ogSources[i] = graph.NodeID(s)
	}
	ogTargets := make([]graph.NodeID, len(c.targets))
	for i, tg := range c.targets {
		ogTargets[i] = graph.NodeID(tg)
	}
	return bruteforce.TopK(c.og, ogSources, ogTargets, c.k)
}

// classifyChaos checks one faulted query outcome against the contract and
// returns its class ("correct", "truncated", "error"); any violation
// fails the test. want is the oracle answer.
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
	if !errors.Is(err, kpj.ErrInjectedFault) && !errors.Is(err, kpj.ErrWorkerPanic) {
		t.Fatalf("%s: error is not fault-typed: %v", alg, err)
	}
	partial, ok := kpj.Truncated(err)
	if !ok {
		// A typed error without a truncation wrapper carries no paths;
		// acceptable, but the return value must agree.
		if len(paths) != 0 {
			t.Fatalf("%s: non-truncated error %v alongside %d paths", alg, err, len(paths))
		}
		return "error"
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

// TestChaosOracleSchedules replays oracle cases under seeded fault
// schedules: 60 schedules, each a fresh case plus a fault.Plan over the
// query-time points, run through every algorithm. Every outcome must
// classify cleanly and no schedule may leak a goroutine.
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
			// Build the index before installing faults: this schedule
			// exercises query-time points; load/build points have their
			// own test below.
			var opt kpj.Options
			if c.index {
				ix, err := kpj.BuildIndex(c.g, 3, 7)
				if err != nil {
					t.Fatalf("BuildIndex: %v", err)
				}
				opt.Index = ix
			}
			rules := fault.Plan(int64(seed), fault.PlanConfig{
				Points: fault.QueryPoints,
				Rules:  5,
				MaxHit: 48,
			})
			for _, alg := range allAlgorithms {
				chaosInstall(t, fault.New().Add(rules...))
				o := opt
				o.Algorithm = alg
				paths, err := c.g.TopKJoinSets(c.sources, c.targets, c.k, &o)
				fault.Install(nil)
				counts[classifyChaos(t, c, alg, paths, err, want)]++
			}
		})
	}
	t.Logf("chaos outcomes over %d schedules: %v", schedules, counts)
	if counts["correct"] == 0 || counts["truncated"] == 0 {
		t.Fatalf("degenerate chaos sweep (no mix of outcomes): %v", counts)
	}
}

// TestChaosBatchSchedules replays a batch of oracle queries under
// schedules that include the batch.worker point: transient injections
// must be healed by the retry layer or surface as typed truncations,
// never as wrong results.
func TestChaosBatchSchedules(t *testing.T) {
	schedules := 12
	if testing.Short() {
		schedules = 4
	}
	for seed := 0; seed < schedules; seed++ {
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			defer leaktest.Check(t)()
			c := oracleCaseFor(t, seed%20)
			want := oracleAnswer(c)
			queries := make([]kpj.BatchQuery, 6)
			for i := range queries {
				queries[i] = kpj.BatchQuery{Sources: c.sources, Targets: c.targets, K: c.k}
			}
			chaosInstall(t, fault.New().Add(fault.Plan(int64(1000+seed), fault.PlanConfig{
				Points: fault.QueryPoints,
				Rules:  4,
				MaxHit: 24,
			})...))
			results := c.g.Batch(queries, 2, nil)
			fault.Install(nil)
			for i, r := range results {
				cls := classifyChaos(t, c, kpj.IterBoundSPTI, r.Paths, r.Err, want)
				_ = cls
				_ = i
			}
		})
	}
}

// TestBatchTransientFaultIsRetried: a transient fault that fires exactly
// once at batch.worker is absorbed by the retry-with-backoff layer — the
// item still returns the full correct answer.
func TestBatchTransientFaultIsRetried(t *testing.T) {
	defer leaktest.Check(t)()
	c := oracleCaseFor(t, 1)
	want := oracleAnswer(c)
	chaosInstall(t, fault.New().Add(
		fault.Rule{Point: fault.BatchWorker, Nth: 1, Count: 1, Kind: fault.KindTransient}))
	results := c.g.Batch([]kpj.BatchQuery{{Sources: c.sources, Targets: c.targets, K: c.k}}, 1, nil)
	if err := results[0].Err; err != nil {
		t.Fatalf("transient fault not retried: %v", err)
	}
	if len(results[0].Paths) != len(want) {
		t.Fatalf("retried item has %d paths, oracle %d", len(results[0].Paths), len(want))
	}
	fired := fault.Active().Fired()
	if len(fired) != 1 {
		t.Fatalf("expected exactly one fired injection, got %v", fired)
	}
}

// TestBatchTransientFaultExhaustsRetries: a transient window wider than
// the retry allowance surfaces as a typed truncated error, not a wrong
// answer and not an unbounded retry loop.
func TestBatchTransientFaultExhaustsRetries(t *testing.T) {
	defer leaktest.Check(t)()
	c := oracleCaseFor(t, 1)
	chaosInstall(t, fault.New().Add(
		fault.Rule{Point: fault.BatchWorker, Nth: 1, Count: 100, Kind: fault.KindTransient}))
	results := c.g.Batch([]kpj.BatchQuery{{Sources: c.sources, Targets: c.targets, K: c.k}}, 1, nil)
	err := results[0].Err
	if !errors.Is(err, kpj.ErrInjectedFault) {
		t.Fatalf("err = %v, want ErrInjectedFault", err)
	}
	if _, ok := kpj.Truncated(err); !ok {
		t.Fatalf("exhausted retries should yield a TruncatedError, got %v", err)
	}
	if hits := fault.Active().Hits(fault.BatchWorker); hits != 3 {
		t.Fatalf("batch.worker hit %d times, want 3 (1 try + 2 retries)", hits)
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

// TestFaultPointsLoadPaths: faults at the load/build points surface as
// ordinary typed errors from the constructors (no partial state, no
// panic).
func TestFaultPointsLoadPaths(t *testing.T) {
	defer leaktest.Check(t)()
	c := oracleCaseFor(t, 2)

	chaosInstall(t, fault.New().Add(fault.Rule{Point: fault.GraphRead}))
	if _, err := kpj.ReadGraph(bytes.NewReader([]byte("p sp 1 0\n"))); !errors.Is(err, kpj.ErrInjectedFault) {
		t.Fatalf("graph.read: err = %v, want ErrInjectedFault", err)
	}
	fault.Install(nil)

	chaosInstall(t, fault.New().Add(fault.Rule{Point: fault.IndexBuild}))
	if _, err := kpj.BuildIndex(c.g, 2, 1); !errors.Is(err, kpj.ErrInjectedFault) {
		t.Fatalf("index.build: err = %v, want ErrInjectedFault", err)
	}
	fault.Install(nil)

	ix, err := kpj.BuildIndex(c.g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := kpj.WriteFlat(&buf, c.g, ix); err != nil {
		t.Fatal(err)
	}
	chaosInstall(t, fault.New().Add(fault.Rule{Point: fault.IndexLoad}))
	if _, _, err := kpj.ReadFlat(bytes.NewReader(buf.Bytes())); !errors.Is(err, kpj.ErrInjectedFault) {
		t.Fatalf("index.load: err = %v, want ErrInjectedFault", err)
	}
	fault.Install(nil)
	if _, _, err := kpj.ReadFlat(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("clean reload after fault cleared: %v", err)
	}
}

// chaosPrefixSweep runs one algorithm over a case with an error rule at
// point, sweeping the hit ordinal, and asserts the truncated-prefix
// contract at every ordinal: the result is always a prefix of the clean
// answer, prefix lengths never shrink as the fault moves later, and once
// the ordinal passes the point's total hit count the run is clean.
func chaosPrefixSweep(t *testing.T, c oracleCase, alg kpj.Algorithm, point fault.Point, want []bruteforce.Path) {
	t.Helper()
	opt := &kpj.Options{Algorithm: alg}
	clean, err := c.g.TopKJoinSets(c.sources, c.targets, c.k, opt)
	if err != nil {
		t.Fatalf("%s clean run: %v", alg, err)
	}
	if len(clean) != len(want) {
		t.Fatalf("%s clean run: %d paths, oracle %d", alg, len(clean), len(want))
	}
	prev := -1
	sawTruncated := false
	for nth := int64(1); nth <= 1<<14; nth *= 2 {
		chaosInstall(t, fault.New().Add(fault.Rule{Point: point, Nth: nth, Count: 1}))
		paths, err := c.g.TopKJoinSets(c.sources, c.targets, c.k, opt)
		fired := len(fault.Active().Fired()) > 0
		fault.Install(nil)
		if !fired {
			// The rule's ordinal exceeds the point's hits: run is clean.
			if err != nil {
				t.Fatalf("%s@%s nth=%d: unfired rule but err %v", alg, point, nth, err)
			}
			if len(paths) != len(clean) {
				t.Fatalf("%s@%s nth=%d: unfired rule but %d paths, clean has %d",
					alg, point, nth, len(paths), len(clean))
			}
			break
		}
		if err == nil {
			// Fired after the answer was already complete.
			if len(paths) != len(clean) {
				t.Fatalf("%s@%s nth=%d: nil error with %d paths, clean has %d",
					alg, point, nth, len(paths), len(clean))
			}
			continue
		}
		if !errors.Is(err, kpj.ErrInjectedFault) {
			t.Fatalf("%s@%s nth=%d: err = %v, want ErrInjectedFault", alg, point, nth, err)
		}
		partial, ok := kpj.Truncated(err)
		if !ok {
			t.Fatalf("%s@%s nth=%d: fault error is not a TruncatedError: %v", alg, point, nth, err)
		}
		sawTruncated = true
		for i, p := range partial {
			if p.Length != clean[i].Length {
				t.Fatalf("%s@%s nth=%d: prefix path %d length %d, clean %d",
					alg, point, nth, i, p.Length, clean[i].Length)
			}
			validateOraclePath(t, c, alg, p)
		}
		if len(partial) < prev {
			t.Fatalf("%s@%s nth=%d: prefix shrank from %d to %d as the fault moved later",
				alg, point, nth, prev, len(partial))
		}
		prev = len(partial)
	}
	if !sawTruncated {
		t.Fatalf("%s@%s: sweep never produced a truncated prefix", alg, point)
	}
}

// TestTruncatedPrefixMidSPTGrowth: an error injected mid-SPT-growth (the
// spt.grow point) at any ordinal yields a valid, monotone prefix from the
// SPT-based engines.
func TestTruncatedPrefixMidSPTGrowth(t *testing.T) {
	defer leaktest.Check(t)()
	c := oracleCaseFor(t, 1) // road-grid KPJ, no index needed
	want := oracleAnswer(c)
	for _, alg := range []kpj.Algorithm{kpj.IterBoundSPTI, kpj.IterBoundSPTP, kpj.DASPT} {
		chaosPrefixSweep(t, c, alg, fault.SPTGrow, want)
	}
}

// TestTruncatedPrefixMidResolve: an error injected between emissions (the
// subspace.search point) yields a valid, monotone prefix from every
// engine; for the deviation baseline the prefix length is exact.
func TestTruncatedPrefixMidResolve(t *testing.T) {
	defer leaktest.Check(t)()
	c := oracleCaseFor(t, 1)
	want := oracleAnswer(c)
	for _, alg := range allAlgorithms {
		chaosPrefixSweep(t, c, alg, fault.SubspaceSearch, want)
	}

	// DA emits exactly one path per main-loop iteration, so the prefix
	// length under an injection at ordinal n is exactly min(n-1, full).
	clean, err := c.g.TopKJoinSets(c.sources, c.targets, c.k, &kpj.Options{Algorithm: kpj.DA})
	if err != nil {
		t.Fatal(err)
	}
	for nth := int64(1); int(nth) <= len(clean); nth++ {
		chaosInstall(t, fault.New().Add(fault.Rule{Point: fault.SubspaceSearch, Nth: nth, Count: 1}))
		paths, err := c.g.TopKJoinSets(c.sources, c.targets, c.k, &kpj.Options{Algorithm: kpj.DA})
		fault.Install(nil)
		if err == nil {
			t.Fatalf("DA nth=%d: expected a truncation", nth)
		}
		if got, wantN := len(paths), int(nth)-1; got != wantN {
			t.Fatalf("DA nth=%d: prefix has %d paths, want exactly %d", nth, got, wantN)
		}
	}
}

// TestChaosMetricsConsistent: engine metrics must stay coherent under
// injection — every query counts exactly once, and the truncated/error
// split never exceeds the total.
func TestChaosMetricsConsistent(t *testing.T) {
	defer leaktest.Check(t)()
	reg := kpj.NewMetricsRegistry()
	kpj.EnableMetrics(reg)
	defer kpj.EnableMetrics(nil)

	c := oracleCaseFor(t, 1)
	const runs = 40
	for seed := 0; seed < runs; seed++ {
		chaosInstall(t, fault.New().Add(fault.Plan(int64(seed), fault.PlanConfig{
			Points: fault.QueryPoints,
			Rules:  3,
			MaxHit: 32,
		})...))
		alg := allAlgorithms[seed%len(allAlgorithms)]
		_, _ = c.g.TopKJoinSets(c.sources, c.targets, c.k, &kpj.Options{Algorithm: alg})
		fault.Install(nil)
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
	if truncated+failed > queries {
		t.Fatalf("truncated %d + errors %d exceed queries %d", truncated, failed, queries)
	}
}
