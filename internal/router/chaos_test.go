package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"kpj"
	"kpj/internal/fault"
	"kpj/internal/leaktest"
	"kpj/internal/obs"
	"kpj/internal/wire"
)

// Router chaos suite: three in-process replicas under seeded fault
// schedules, with up to two replicas structurally disrupted (killed or
// draining) on top of injected errors, panics, and latency at the
// server's and the router's fault points. The contract under every
// schedule: each query answers either the oracle result (or a truncated
// prefix of it, when its budget cut the engine short) or a typed error —
// never an untyped 5xx, never a wrong path — and no schedule leaks a
// goroutine.

// chaosPoints mixes server-side and router-side fault sites so schedules
// exercise handler failures and proxy/probe failures together. The engine
// has no fault point; truncation is driven by budgetRound's budget.
var chaosPoints = []fault.Point{
	fault.ServerHandler, fault.RouterProxy, fault.RouterProbe,
}

func installFaults(t testing.TB, r *fault.Registry) {
	t.Helper()
	fault.Install(r)
	t.Cleanup(func() { fault.Install(nil) })
}

// classifyResponse asserts one routed query obeyed the chaos contract
// and returns "ok", "truncated", or "typed-error".
func classifyResponse(t testing.TB, code int, header http.Header, body []byte, want []kpj.Path, ctx string) string {
	t.Helper()
	switch {
	case code == http.StatusOK:
		out := decodeQuery(t, body)
		if header.Get("X-Kpj-Replica") == "" {
			t.Fatalf("%s: 200 without X-Kpj-Replica", ctx)
		}
		if out.Truncated {
			assertPrefix(t, out.Paths, want, ctx)
			return "truncated"
		}
		samePaths(t, out.Paths, want, ctx)
		return "ok"
	default:
		// Every non-2xx, from either door, is typed: header and body agree.
		kind := header.Get(wire.HeaderErrorKind)
		var eb wire.ErrorBody
		if kind == "" || json.Unmarshal(body, &eb) != nil || string(eb.Kind) != kind {
			t.Fatalf("%s: %d body %q does not match kind header %q", ctx, code, body, kind)
		}
		if code < 500 {
			t.Fatalf("%s: unexpected status %d: %s", ctx, code, body)
		}
		return "typed-error"
	}
}

func TestRouterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is long; skipped in -short")
	}
	// Oracle answers, computed once with no faults installed (the direct
	// engine calls pass the same global fault points the replicas do).
	oracleQueries := []struct {
		url  string
		want []kpj.Path
	}{
		{"/query?source=0&category=hotel&k=3", oracle(t, 0, "hotel", 3)},
		{"/query?source=7&category=hotel&k=2", oracle(t, 7, "hotel", 2)},
		{"/query?source=35&category=start&k=3", oracle(t, 35, "start", 3)},
		{"/query?source=12&category=hotel&k=4", oracle(t, 12, "hotel", 4)},
	}
	// budgetRound's queries carry a budget that cuts every one of them
	// short after its first path (each needs 17 to 64 units to finish),
	// so the truncated class crosses the router under every schedule.
	const budgetRound, budget = 1, "&budget=14"
	ran, truncated := 0, 0

	const seeds = 44
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer leaktest.Check(t)()
			fixtures := newFixtures(t, 3, nil)
			rt := newTestRouter(t, fixtures, func(c *Config) {
				c.Seed = seed
				c.DownAfter = 2
				c.ProbeInterval = 3 * time.Millisecond
			})
			waitReady(t, rt)

			// Structural disruption on top of the fault schedule: kill up
			// to one replica outright and drain up to one more — at least
			// one replica always stays structurally healthy.
			switch seed % 4 {
			case 1: // kill r0
				fixtures[0].srv.CloseClientConnections()
				fixtures[0].srv.Close()
			case 2: // drain r1
				fixtures[1].app.StartDraining()
			case 3: // kill r0 AND drain r1: only r2 remains
				fixtures[0].srv.CloseClientConnections()
				fixtures[0].srv.Close()
				fixtures[1].app.StartDraining()
			}

			rules := fault.Plan(seed, fault.PlanConfig{
				Points:   chaosPoints,
				Rules:    5,
				MaxHit:   20,
				MaxDelay: 2 * time.Millisecond,
			})
			reg := fault.New().Add(rules...)
			installFaults(t, reg)

			results := map[string]int{}
			for round := 0; round < 2; round++ {
				for qi, q := range oracleQueries {
					url := q.url
					if round == budgetRound {
						url += budget
					}
					rec, body := routerGet(t, rt, url)
					ctx := fmt.Sprintf("seed %d round %d query %d", seed, round, qi)
					class := classifyResponse(t, rec.Code, rec.Header(), body, q.want, ctx)
					if round == budgetRound && class == "ok" {
						t.Fatalf("%s: %s answered in full", ctx, budget)
					}
					results[class]++
				}
			}
			// The schedule ran against live replicas: the fault points must
			// actually have been exercised, or the suite is vacuous.
			total := 0
			for _, p := range chaosPoints {
				total += int(reg.Hits(p))
			}
			if total == 0 {
				t.Fatalf("seed %d: no fault point was ever hit", seed)
			}
			if results["ok"]+results["truncated"]+results["typed-error"] != 2*len(oracleQueries) {
				t.Fatalf("seed %d: classification mismatch: %v", seed, results)
			}
			ran++
			truncated += results["truncated"]

			// Uninstall before teardown so draining/closing replicas don't
			// trip latent rules, then close everything explicitly ahead of
			// the deferred leak check (t.Cleanup runs after it).
			fault.Install(nil)
			rt.Close()
			for _, f := range fixtures {
				f.srv.Close()
			}
		})
	}
	t.Logf("%d truncated answers over %d schedules", truncated, ran)
	if ran > 0 && truncated == 0 {
		t.Fatalf("no %s query crossed the router as a truncated prefix", budget)
	}
}

// TestRouterChaosAllDisrupted: with every replica disrupted the router
// must still answer — typed errors only, never a hang or untyped 5xx.
func TestRouterChaosAllDisrupted(t *testing.T) {
	defer leaktest.Check(t)()
	fixtures := newFixtures(t, 3, nil)
	rt := newTestRouter(t, fixtures, func(c *Config) {
		c.DownAfter = 1
		c.RequestTimeout = 2 * time.Second
	})
	waitReady(t, rt)
	for _, f := range fixtures {
		f.app.StartDraining()
	}
	for i := 0; i < 3; i++ {
		rec, body := routerGet(t, rt, "/query?source=0&category=hotel&k=2")
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("query %d with all replicas draining: status %d (%s)", i, rec.Code, body)
		}
		if rec.Header().Get("X-Kpj-Error-Kind") == "" {
			t.Fatalf("query %d: untyped 503 (%s)", i, body)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("query %d: 503 without Retry-After", i)
		}
	}
	rt.Close()
	for _, f := range fixtures {
		f.srv.Close()
	}
}

// TestRouterHedgeSlowReplica is the hedging acceptance check: a query
// whose primary stalls must be answered by the hedge replica in well
// under the stall time — bounded by the fixed hedge threshold ×2.
func TestRouterHedgeSlowReplica(t *testing.T) {
	defer leaktest.Check(t)()
	const hedgeAfter = 200 * time.Millisecond
	var slowName atomic.Value // string; "" = nobody stalls
	slowName.Store("")
	mutate := func(i int, h http.Handler) http.Handler {
		name := fmt.Sprintf("r%d", i)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/query" && slowName.Load().(string) == name {
				select { // stall far past the hedge threshold, but honor cancellation
				case <-r.Context().Done():
					return
				case <-time.After(5 * time.Second):
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	fixtures := newFixtures(t, 2, mutate)
	reg := obs.NewRegistry()
	rt := newTestRouter(t, fixtures, func(c *Config) {
		c.HedgeAfter = hedgeAfter
		c.Metrics = reg
	})
	// Both replicas must be routable before the next primary is read —
	// the rotation runs over up replicas only, and stalling the wrong
	// replica makes the hedge assertion vacuous.
	waitReady(t, rt)
	waitAllHealthy(t, rt, fixtures)

	rec, body := routerGet(t, rt, "/query?source=0&category=hotel&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("warm query: status %d (%s)", rec.Code, body)
	}
	// Stall only the replica the next query tries first.
	primary := nextPrimary(rt)
	slowName.Store(primary)

	want := oracle(t, 0, "hotel", 3)
	start := time.Now()
	rec, body = routerGet(t, rt, "/query?source=0&category=hotel&k=3")
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged query: status %d (%s)", rec.Code, body)
	}
	if rep := rec.Header().Get("X-Kpj-Replica"); rep == primary {
		t.Fatalf("stalled primary %s won the hedged query", rep)
	}
	samePaths(t, decodeQuery(t, body).Paths, want, "hedged query")
	if elapsed >= 2*hedgeAfter {
		t.Fatalf("hedged query took %v, want under %v (hedge threshold ×2)", elapsed, 2*hedgeAfter)
	}
	if n := rt.met.hedges.Value(); n < 1 {
		t.Fatalf("kpj_router_hedges_total = %d, want >= 1", n)
	}
	if n := rt.met.hedgeWins.Value(); n < 1 {
		t.Fatalf("kpj_router_hedge_wins_total = %d, want >= 1", n)
	}

	slowName.Store("")
	rt.Close()
	for _, f := range fixtures {
		f.srv.Close()
	}
}
