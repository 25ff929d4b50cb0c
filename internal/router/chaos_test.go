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
// server's handler point and at the router's transport, per replica and
// request path. The contract under every schedule: each query answers
// either the oracle result (or a truncated prefix of it, when its budget
// cut the engine short) or a typed error — never an untyped 5xx, never a
// wrong path — and no schedule leaks a goroutine.

// faultTransport is the router's network boundary under test. Each
// upstream request first hits the installed fault registry at its
// transportPoint, so a schedule can fail, delay or panic the requests of
// one kind to one replica; a panic comes out of http.Client.Do on the
// caller's goroutine, where the router's own recover must catch it.
type faultTransport struct {
	base  *http.Transport
	names map[string]string // request host → replica name
}

func newFaultTransport(fixtures []*fixture) *faultTransport {
	ft := &faultTransport{base: &http.Transport{MaxIdleConnsPerHost: 16}, names: map[string]string{}}
	for _, f := range fixtures {
		ft.names[f.srv.Listener.Addr().String()] = f.name
	}
	return ft
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := fault.Hit(transportPoint(ft.names[req.URL.Host], req.URL.Path)); err != nil {
		return nil, err
	}
	return ft.base.RoundTrip(req)
}

// CloseIdleConnections lets Router.Close release the base transport's
// idle connections through http.Client.
func (ft *faultTransport) CloseIdleConnections() { ft.base.CloseIdleConnections() }

// transportPoint names the fault point of requests to replica at path,
// e.g. "r0/query" or "r1/readyz".
func transportPoint(replica, path string) fault.Point { return fault.Point(replica + path) }

// chaosPoints mixes the server's handler point with every replica's
// /query and /readyz transport points, so schedules exercise handler
// failures and per-replica proxy/probe failures together. The engine has
// no fault point; truncation is driven by budgetRound's budget.
func chaosPoints(fixtures []*fixture) []fault.Point {
	points := []fault.Point{fault.ServerHandler}
	for _, f := range fixtures {
		points = append(points, transportPoint(f.name, "/query"), transportPoint(f.name, "/readyz"))
	}
	return points
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
				c.Transport = newFaultTransport(fixtures)
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

			points := chaosPoints(fixtures)
			rules := fault.Plan(seed, fault.PlanConfig{
				Points:   points,
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
			for _, p := range points {
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

// TestTransportPanicsRecovered drives each of the router's three
// recovers with one panic raised in its transport: a probe's /readyz
// counts as a failed probe, the primary's /query fails over to the oracle
// answer, and one replica's /update leaves it fenced, resynced and
// readmitted at the new epoch — never a crash, never a leaked goroutine.
func TestTransportPanicsRecovered(t *testing.T) {
	defer leaktest.Check(t)()
	fixtures := newFixtures(t, 3, nil)
	rt := newTestRouter(t, fixtures, func(c *Config) {
		c.Metrics = obs.NewRegistry()
		c.Transport = newFaultTransport(fixtures)
	})
	waitReady(t, rt)
	waitAllHealthy(t, rt, fixtures)

	// Only this test's own requests hit /query and /update, so those rules
	// fire exactly when it sends them; /readyz's fires at r2's next probe.
	primary := nextPrimary(rt)
	readyz, query, update := transportPoint("r2", "/readyz"), transportPoint(primary, "/query"), transportPoint("r1", "/update")
	reg := fault.New().Add(
		fault.Rule{Point: readyz, Kind: fault.KindPanic},
		fault.Rule{Point: query, Kind: fault.KindPanic},
		fault.Rule{Point: update, Kind: fault.KindPanic},
	)
	probeErrs := rt.met.probeErrs.Value()
	installFaults(t, reg)

	// r2's probes run one at a time, so its third /readyz means the
	// second, clean one has finished and reset its failure streak.
	waitFor(t, "r2 probed twice after the panic", func() bool { return reg.Hits(readyz) >= 3 })
	if n := rt.met.probeErrs.Value(); n < probeErrs+1 {
		t.Fatalf("probe panic not counted: kpj_router_probes_total{result=error} = %d, was %d", n, probeErrs)
	}
	waitState(t, rt, "r2", stateHealthy)

	failovers := rt.met.failovers.Value()
	rec, body := routerGet(t, rt, "/query?source=0&category=hotel&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("query whose primary panicked: %d %s", rec.Code, body)
	}
	if n := rt.met.failovers.Value(); n != failovers+1 {
		t.Fatalf("panicked attempt did not fail over: failovers %d, was %d", n, failovers)
	}
	if rep := rec.Header().Get(wire.HeaderReplica); rep == primary {
		t.Fatalf("panicked primary %s answered", rep)
	}
	samePaths(t, decodeQuery(t, body).Paths, oracle(t, 0, "hotel", 3), "query whose primary panicked")

	downs := rt.met.toState[stateDown].Value()
	rec, body = routerPost(t, rt, "/update", `{"setWeights":[{"u":0,"v":1,"w":4}]}`)
	var out updateFanBody
	if rec.Code != http.StatusOK || json.Unmarshal(body, &out) != nil {
		t.Fatalf("update whose r1 fan-out panicked: %d %s", rec.Code, body)
	}
	if out.Epoch != 1 || len(out.Applied) != 2 || len(out.Resyncing) != 1 || out.Resyncing[0] != "r1" {
		t.Fatalf("update whose r1 fan-out panicked: %+v, want epoch 1 applied by two and r1 resyncing", out)
	}
	if n := rt.met.toState[stateDown].Value(); n != downs+1 {
		t.Fatalf("r1 not fenced: down transitions %d, was %d", n, downs)
	}
	waitFor(t, "r1 resynced and readmitted", func() bool {
		return rt.reps[1].State() == stateHealthy && fixtures[1].app.Epoch() == 1
	})

	fired := reg.Fired()
	if len(fired) != 3 {
		t.Fatalf("fired %+v, want one panic at each of %s, %s, %s", fired, readyz, query, update)
	}
	for _, e := range fired {
		if e.Kind != fault.KindPanic {
			t.Fatalf("fired %+v, want panics only", fired)
		}
	}
	fault.Install(nil)
	rt.Close()
	for _, f := range fixtures {
		f.srv.Close()
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
