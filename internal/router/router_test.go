package router

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kpj"
	"kpj/internal/obs"
	"kpj/internal/server"
	"kpj/internal/wire"
)

// Shared fixture graph: the 6×6 grid city used across the server tests,
// with the landmark index built once for the whole package.
var (
	fixOnce  sync.Once
	fixGraph *kpj.Graph
	fixIndex *kpj.Index
)

func testGraphIndex(t testing.TB) (*kpj.Graph, *kpj.Index) {
	t.Helper()
	fixOnce.Do(func() {
		const w, h = 6, 6
		b := kpj.NewBuilder(w * h)
		id := func(x, y int) kpj.NodeID { return kpj.NodeID(y*w + x) }
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x+1 < w {
					b.AddBiEdge(id(x, y), id(x+1, y), kpj.Weight(10+(x+y)%3))
				}
				if y+1 < h {
					b.AddBiEdge(id(x, y), id(x, y+1), kpj.Weight(10+(x*y)%3))
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			panic(err)
		}
		if err := g.AddCategory("hotel", []kpj.NodeID{id(5, 5), id(2, 3)}); err != nil {
			panic(err)
		}
		if err := g.AddCategory("start", []kpj.NodeID{id(0, 0), id(5, 0)}); err != nil {
			panic(err)
		}
		ix, err := kpj.BuildIndex(g, 4, 1)
		if err != nil {
			panic(err)
		}
		fixGraph, fixIndex = g, ix
	})
	return fixGraph, fixIndex
}

// fixture is one in-process replica: a real internal/server instance
// behind a real listener, optionally wrapped for per-replica
// misbehavior (slowness, forced errors).
type fixture struct {
	name string
	app  *server.Server
	srv  *httptest.Server
}

// newFixtures starts n replicas over the shared graph/index. mutate,
// when non-nil, may wrap each replica's handler.
func newFixtures(t testing.TB, n int, mutate func(i int, h http.Handler) http.Handler, opts ...server.Option) []*fixture {
	t.Helper()
	g, ix := testGraphIndex(t)
	fixtures := make([]*fixture, n)
	for i := 0; i < n; i++ {
		app := server.New(g, ix, opts...)
		var h http.Handler = app
		if mutate != nil {
			h = mutate(i, h)
		}
		srv := httptest.NewServer(h)
		fixtures[i] = &fixture{name: fmt.Sprintf("r%d", i), app: app, srv: srv}
		t.Cleanup(srv.Close)
	}
	return fixtures
}

// newTestRouter builds a Router over the fixtures with test-scale
// timings; mutate may adjust the config before New.
func newTestRouter(t testing.TB, fixtures []*fixture, mutate func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		ProbeInterval: 5 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
		MaxHedge:      2 * time.Second,
		Seed:          1,
		Logf:          func(string, ...any) {},
	}
	for _, f := range fixtures {
		cfg.Replicas = append(cfg.Replicas, ReplicaConfig{Name: f.name, URL: f.srv.URL})
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func routerGet(t testing.TB, rt *Router, url string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

// waitReady blocks until the router reports ready (some replica probed
// up) — the equivalent of a load balancer's initial health window.
func waitReady(t testing.TB, rt *Router) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rec, _ := routerGet(t, rt, "/readyz"); rec.Code == http.StatusOK {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("router never became ready")
}

// waitState blocks until the named replica reaches state st in the
// router's view.
func waitState(t testing.TB, rt *Router, name string, st State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, rp := range rt.reps {
			if rp.name == name && rp.State() == st {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica %s never reached %v", name, st)
}

// oracle computes the expected /query answer directly against the
// engine, bypassing the serving stack.
func oracle(t testing.TB, source kpj.NodeID, category string, k int) []kpj.Path {
	t.Helper()
	g, ix := testGraphIndex(t)
	paths, err := g.TopKJoin(source, category, k, &kpj.Options{Index: ix})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return paths
}

func decodeQuery(t testing.TB, body []byte) server.QueryResponse {
	t.Helper()
	var out server.QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad query response %s: %v", body, err)
	}
	return out
}

// samePaths asserts got == want exactly.
func samePaths(t testing.TB, got []server.PathJSON, want []kpj.Path, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", ctx, len(got), len(want))
	}
	assertPrefix(t, got, want, ctx)
}

// assertPrefix asserts got is an exact prefix of want (the truncation
// contract: a cut-short query returns the first paths of the full
// answer, bit-identically).
func assertPrefix(t testing.TB, got []server.PathJSON, want []kpj.Path, ctx string) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("%s: %d paths exceed the oracle's %d", ctx, len(got), len(want))
	}
	for i, p := range got {
		if p.Length != want[i].Length || len(p.Nodes) != len(want[i].Nodes) {
			t.Fatalf("%s: path %d = %v (len %d), want %v (len %d)", ctx, i, p.Nodes, p.Length, want[i].Nodes, want[i].Length)
		}
		for j, n := range p.Nodes {
			if n != want[i].Nodes[j] {
				t.Fatalf("%s: path %d node %d = %d, want %d", ctx, i, j, n, want[i].Nodes[j])
			}
		}
	}
}

func TestRingSequenceDeterministicAndComplete(t *testing.T) {
	r := buildRing([]string{"a", "b", "c"})
	for _, key := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
		s1 := r.sequence(key)
		s2 := r.sequence(key)
		if len(s1) != 3 {
			t.Fatalf("key %d: sequence %v does not cover all replicas", key, s1)
		}
		seen := map[int]bool{}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("key %d: nondeterministic sequence %v vs %v", key, s1, s2)
			}
			seen[s1[i]] = true
		}
		if len(seen) != 3 {
			t.Fatalf("key %d: duplicate replicas in %v", key, s1)
		}
	}
	// Different category sets must spread across replicas. With 64
	// vnodes each and the finalized hash, a three-replica ring splits
	// within a few points of 33/33/33 — insist every replica homes a
	// real share (raw FNV-1a once skewed this past 55/34/11).
	homes := map[int]int{}
	const keys = 300
	for i := 0; i < keys; i++ {
		homes[r.sequence(affinityKey(42, []string{fmt.Sprintf("cat%d", i)}))[0]]++
	}
	for idx := 0; idx < 3; idx++ {
		if homes[idx] < keys/5 {
			t.Fatalf("replica %d homes only %d of %d keys: %v", idx, homes[idx], keys, homes)
		}
	}
}

func TestRingRemovalOnlyMovesOwnedKeys(t *testing.T) {
	full := buildRing([]string{"a", "b", "c"})
	reduced := buildRing([]string{"a", "b"}) // "c" removed
	moved, kept := 0, 0
	for i := 0; i < 200; i++ {
		key := affinityKey(7, []string{fmt.Sprintf("cat%d", i)})
		before := full.sequence(key)[0]
		after := reduced.sequence(key)[0]
		if before == 2 { // was homed on "c": must move
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %d moved from %d to %d though its home survived", i, before, after)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

func TestCategorySetSorted(t *testing.T) {
	v1 := categorySet(url.Values{"sourceCategory": {"zebra"}, "category": {"alpha"}})
	v2 := categorySet(url.Values{"sourceCategory": {"alpha"}, "category": {"zebra"}})
	if affinityKey(1, v1) != affinityKey(1, v2) {
		t.Fatal("category-set affinity should be order-independent")
	}
}

func TestBatchAffinityLenient(t *testing.T) {
	cats := batchAffinity([]byte(`[{"sourceCategory":"b","k":1},{"category":"a","k":2},{"category":"a"}]`))
	if len(cats) != 2 || cats[0] != "a" || cats[1] != "b" {
		t.Fatalf("batchAffinity = %v, want [a b]", cats)
	}
	if got := batchAffinity([]byte(`{not json`)); got != nil {
		t.Fatalf("malformed body should yield no categories, got %v", got)
	}
}

func TestLatencyTracker(t *testing.T) {
	var lt latencyTracker
	if _, ok := lt.threshold(); ok {
		t.Fatal("threshold before any sample should report not-ok")
	}
	for i := 0; i < 50; i++ {
		lt.observe(10 * time.Millisecond)
	}
	th, ok := lt.threshold()
	if !ok {
		t.Fatal("threshold after samples")
	}
	// Steady 10ms traffic: the threshold converges toward the EWMA as
	// the deviation decays; it must sit at or above the common case and
	// far below 10× it.
	if th < 10*time.Millisecond || th > 100*time.Millisecond {
		t.Fatalf("threshold %v for steady 10ms latency", th)
	}
}

func TestRouterServesWithAffinity(t *testing.T) {
	fixtures := newFixtures(t, 3, nil)
	rt := newTestRouter(t, fixtures, func(c *Config) {
		c.HedgeAfter = time.Hour // a stray hedge win would break the affinity assertion
	})
	// All replicas must be routable before the first query pins the
	// affinity home: readyz alone means >= 1 probed up, and a home chosen
	// from a partial candidate set moves once the ring fills in.
	waitReady(t, rt)
	waitAllHealthy(t, rt, fixtures)

	want := oracle(t, 0, "hotel", 3)
	var home string
	for i := 0; i < 6; i++ {
		rec, body := routerGet(t, rt, "/query?source=0&category=hotel&k=3")
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d (%s)", i, rec.Code, body)
		}
		out := decodeQuery(t, body)
		samePaths(t, out.Paths, want, fmt.Sprintf("query %d", i))
		rep := rec.Header().Get("X-Kpj-Replica")
		if rep == "" {
			t.Fatalf("query %d: missing X-Kpj-Replica", i)
		}
		if home == "" {
			home = rep
		} else if rep != home {
			t.Fatalf("query %d: affinity broken, served by %s after %s", i, rep, home)
		}
	}
}

func TestFailoverWhenPrimaryDies(t *testing.T) {
	fixtures := newFixtures(t, 3, nil)
	rt := newTestRouter(t, fixtures, func(c *Config) {
		c.DownAfter = 1
		c.Metrics = obs.NewRegistry()
		c.ProbeInterval = time.Hour // one probe each at start; none after the kill
	})
	waitReady(t, rt)
	waitAllHealthy(t, rt, fixtures)

	const url = "/query?source=0&category=hotel&k=3"
	rec, body := routerGet(t, rt, url)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm query: status %d (%s)", rec.Code, body)
	}
	home := rec.Header().Get("X-Kpj-Replica")

	for _, f := range fixtures {
		if f.name == home {
			f.srv.CloseClientConnections()
			f.srv.Close()
		}
	}
	want := oracle(t, 0, "hotel", 3)
	rec, body = routerGet(t, rt, url)
	if rec.Code != http.StatusOK {
		t.Fatalf("query after killing %s: status %d (%s)", home, rec.Code, body)
	}
	if rep := rec.Header().Get("X-Kpj-Replica"); rep == home {
		t.Fatalf("dead replica %s served the failover query", home)
	}
	samePaths(t, decodeQuery(t, body).Paths, want, "failover query")
	waitState(t, rt, home, StateDown)
	// The failed attempt is a failover, not a failed probe: no probe ran.
	if n := rt.met.probeErrs.Value(); n != 0 {
		t.Fatalf(`kpj_router_probes_total{result="error"} = %d after a proxied failure, want 0`, n)
	}
	if n := rt.met.failovers.Value(); n < 1 {
		t.Fatalf("kpj_router_failovers_total = %d, want >= 1", n)
	}
}

func TestDrainingReplicaStopsReceivingTraffic(t *testing.T) {
	fixtures := newFixtures(t, 2, nil)
	rt := newTestRouter(t, fixtures, nil)
	waitReady(t, rt)

	rec, _ := routerGet(t, rt, "/query?source=0&category=hotel&k=2")
	home := rec.Header().Get("X-Kpj-Replica")
	var drained *fixture
	for _, f := range fixtures {
		if f.name == home {
			drained = f
		}
	}
	drained.app.StartDraining()
	waitState(t, rt, home, StateDown)

	for i := 0; i < 4; i++ {
		rec, body := routerGet(t, rt, "/query?source=0&category=hotel&k=2")
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d during drain: status %d (%s)", i, rec.Code, body)
		}
		if rep := rec.Header().Get("X-Kpj-Replica"); rep == home {
			t.Fatalf("query %d routed to draining replica %s", i, home)
		}
	}
}

func TestHeaderPropagation(t *testing.T) {
	// A stub replica that reports healthy but decorates /query responses
	// with the degradation headers the router must pass through verbatim.
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			fmt.Fprint(w, `{"ready":true,"fingerprint":"00000000000000aa"}`)
		case "/healthz":
			fmt.Fprint(w, `{"status":"ok","breakers":{"IterBoundI":"closed"}}`)
		case "/query":
			w.Header().Set("X-Kpj-Degraded", "1")
			w.Header().Set("Retry-After", "7")
			w.Header().Set("X-Kpj-Epoch", "3")
			w.Header().Set("X-Kpj-Fingerprint", "00000000000000aa")
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"paths":[],"micros":1,"degraded":true}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer stub.Close()

	rt, err := New(Config{
		Replicas:      []ReplicaConfig{{Name: "stub", URL: stub.URL}},
		ProbeInterval: 5 * time.Millisecond,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	waitReady(t, rt)

	rec, body := routerGet(t, rt, "/query?source=0&category=hotel&k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d (%s)", rec.Code, body)
	}
	if got := rec.Header().Get("X-Kpj-Degraded"); got != "1" {
		t.Fatalf("X-Kpj-Degraded = %q, want 1 (propagated unchanged)", got)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want 7 (propagated unchanged)", got)
	}
	if got := rec.Header().Get("X-Kpj-Replica"); got != "stub" {
		t.Fatalf("X-Kpj-Replica = %q, want stub", got)
	}
	if got := rec.Header().Get("X-Kpj-Epoch"); got != "3" {
		t.Fatalf("X-Kpj-Epoch = %q, want 3 (propagated unchanged)", got)
	}
	if got := rec.Header().Get("X-Kpj-Fingerprint"); got != "00000000000000aa" {
		t.Fatalf("X-Kpj-Fingerprint = %q, want propagated unchanged", got)
	}
}

func TestCandidatesPreferBreakerClosed(t *testing.T) {
	// Hand-built replica set: no probes, states set directly.
	reps := []*replica{{name: "a"}, {name: "b"}, {name: "c"}}
	rt := &Router{reps: reps, ring: buildRing(names(reps))}
	for _, rp := range reps {
		rp.state.Store(int32(StateHealthy))
	}
	key := affinityKey(1, []string{"hotel"})
	base := rt.candidates(key, "IterBoundI")

	// Open the affinity home's breaker for the requested algorithm: it
	// must drop behind the breaker-closed replicas but stay routable.
	home := base[0]
	home.breakers = map[string]bool{"IterBoundI": true}
	got := rt.candidates(key, "IterBoundI")
	if len(got) != 3 || got[len(got)-1] != home {
		t.Fatalf("open-breaker home %s should sort last, got %v", home.name, names(got))
	}
	// For a different algorithm the same replica keeps its affinity slot.
	if rt.candidates(key, "DA")[0] != home {
		t.Fatal("breaker for one algorithm must not repel other algorithms")
	}
	// No alg parameter selects the default engine, and so its breaker.
	if got := rt.candidates(key, ""); got[len(got)-1] != home {
		t.Fatalf("alg=\"\" should avoid the default engine's open breaker on %s, got %v", home.name, names(got))
	}
	// A down replica sorts after everything, even open breakers.
	second := got[0]
	second.state.Store(int32(StateDown))
	got = rt.candidates(key, "IterBoundI")
	if got[len(got)-1] != second {
		t.Fatalf("down replica %s should sort last, got %v", second.name, names(got))
	}
}

func names(reps []*replica) []string {
	out := make([]string, len(reps))
	for i, rp := range reps {
		out[i] = rp.name
	}
	return out
}

func TestTypedErrorWhenAllReplicasDead(t *testing.T) {
	// Replicas that were alive long enough to pass URL validation, then
	// closed before the router ever reached them.
	dead := make([]ReplicaConfig, 2)
	for i := range dead {
		srv := httptest.NewServer(http.NotFoundHandler())
		dead[i] = ReplicaConfig{Name: fmt.Sprintf("dead%d", i), URL: srv.URL}
		srv.Close()
	}
	rt, err := New(Config{
		Replicas:      dead,
		ProbeInterval: time.Hour, // first probe runs immediately; no re-probe churn
		MaxAttempts:   2,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	rec, body := routerGet(t, rt, "/query?source=0&category=hotel&k=2")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", rec.Code, body)
	}
	var eb wire.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" || eb.Kind == "" {
		t.Fatalf("untyped error body %s (err %v)", body, err)
	}
	if rec.Header().Get("X-Kpj-Error-Kind") != string(eb.Kind) {
		t.Fatalf("X-Kpj-Error-Kind %q != body kind %q", rec.Header().Get("X-Kpj-Error-Kind"), eb.Kind)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("typed 503 must carry Retry-After")
	}
	if rec, _ := routerGet(t, rt, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with all replicas dead: status %d, want 503", rec.Code)
	}

	// A client that went away is typed as that, however deep the
	// transport wrapped context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?source=0&category=hotel&k=2", nil).WithContext(ctx))
	if kind := rec.Header().Get("X-Kpj-Error-Kind"); kind != string(wire.KindCanceled) {
		t.Fatalf("canceled request: X-Kpj-Error-Kind %q, want %q", kind, wire.KindCanceled)
	}
}

// TestNewRejectsBadReplicaSets: the replica set is fixed at New, so New is
// the one place it is validated.
func TestNewRejectsBadReplicaSets(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas []ReplicaConfig
		want     string
	}{
		{"empty", nil, "at least one replica"},
		{"no scheme", []ReplicaConfig{{URL: "localhost:8080"}}, "bad replica URL"},
		{"unparsable", []ReplicaConfig{{URL: "http://[::1"}}, "bad replica URL"},
		{"duplicate names", []ReplicaConfig{{Name: "a", URL: "http://a"}, {Name: "a", URL: "http://b"}}, `duplicate replica name "a"`},
		{"default-name collision", []ReplicaConfig{{URL: "http://a"}, {Name: "r0", URL: "http://b"}}, `duplicate replica name "r0"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := New(Config{Replicas: tc.replicas, Logf: func(string, ...any) {}})
			if err == nil {
				rt.Close()
				t.Fatalf("New accepted %v", tc.replicas)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

func TestProbeStateMachineWithFakeClock(t *testing.T) {
	fixtures := newFixtures(t, 1, nil)
	clk := NewFakeClock(time.Unix(0, 0))
	rt := newTestRouter(t, fixtures, func(c *Config) {
		c.Clock = clk
		c.ProbeInterval = 100 * time.Millisecond
		c.DownAfter = 2
	})
	// The first probe fires immediately (After(0)) even on a frozen
	// clock; wait for the loop to park on the interval timer.
	waitState(t, rt, "r0", StateHealthy)
	waitWaiters(t, clk, 1)

	// Drain the replica: the next two probes see not-ready and take it
	// healthy -> down, each probe fired by one clock step.
	fixtures[0].app.StartDraining()
	clk.Advance(100 * time.Millisecond)
	waitWaiters(t, clk, 1)
	if st := rt.reps[0].State(); st == StateDown {
		t.Fatal("one failed probe should not mark the replica down (DownAfter=2)")
	}
	clk.Advance(100 * time.Millisecond)
	waitState(t, rt, "r0", StateDown)
	waitWaiters(t, clk, 1)

	// Down replicas re-probe on exponential backoff: the computed delay
	// includes jitter on top of the base interval.
	rp := rt.reps[0]
	if d := rt.nextProbeDelay(rp); d < 100*time.Millisecond {
		t.Fatalf("down-replica re-probe delay %v fell below the base interval", d)
	}
}

func waitWaiters(t testing.TB, clk *FakeClock, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if clk.Waiters() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("clock never reached %d waiters", n)
}

func TestNextProbeDelayBackoffCapped(t *testing.T) {
	rt := &Router{cfg: Config{ProbeInterval: 10 * time.Millisecond, DownAfter: 2, MaxProbeBackoff: 100 * time.Millisecond}}
	rt.rng = rand.New(rand.NewSource(7))
	rp := &replica{}
	prevMax := time.Duration(0)
	for fails := 2; fails < 12; fails++ {
		rp.fails = fails
		// Base backoff doubles per failure past DownAfter then caps; the
		// jittered delay (base + up to base/2) must respect 1.5× the cap.
		d := rt.nextProbeDelay(rp)
		if d > 150*time.Millisecond {
			t.Fatalf("fails=%d: delay %v exceeds jittered cap", fails, d)
		}
		if d > prevMax {
			prevMax = d
		}
	}
	if prevMax <= 10*time.Millisecond {
		t.Fatalf("backoff never grew past the base interval (max %v)", prevMax)
	}
	rp.fails = 1 // below DownAfter: plain interval
	if d := rt.nextProbeDelay(rp); d != 10*time.Millisecond {
		t.Fatalf("up-replica delay %v, want the plain interval", d)
	}
}

func TestRetryBudgetBoundsAmplification(t *testing.T) {
	// Every replica answers 500: with a one-token budget the first
	// request may retry once, after which retries are denied and each
	// request costs exactly one upstream attempt.
	var hits atomic.Int64
	mutate := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/query" {
				hits.Add(1)
				http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	fixtures := newFixtures(t, 3, mutate)
	rt := newTestRouter(t, fixtures, func(c *Config) {
		c.RetryBudget = 1
		c.HedgeAfter = time.Hour // isolate the failover path
	})
	waitReady(t, rt)

	for i := 0; i < 5; i++ {
		rec, body := routerGet(t, rt, "/query?source=0&category=hotel&k=2")
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d (%s)", i, rec.Code, body)
		}
		if rec.Header().Get("X-Kpj-Error-Kind") == "" {
			t.Fatalf("request %d: untyped 5xx (%s)", i, body)
		}
	}
	// 5 requests, 1 retry token: at most 5 primaries + 1 funded retry.
	if n := hits.Load(); n > 6 {
		t.Fatalf("%d upstream attempts for 5 requests on an empty budget", n)
	}
}
