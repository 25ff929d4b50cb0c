package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kpj/internal/leaktest"
	"kpj/internal/obs"
	"kpj/internal/wire"
)

// Tests for the replicated-update layer: fenced fan-out, fleet epoch
// adoption, divergence fencing, delta-tail replay, snapshot resync, and
// the readmission invariant (a replica is never routable at a stale
// epoch).

func routerPost(t testing.TB, rt *Router, url, body string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

// fixtureUpdate applies a delta directly to one replica, bypassing the
// router — the way a replica falls out of fleet agreement.
func fixtureUpdate(t testing.TB, f *fixture, body string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(body))
	rec := httptest.NewRecorder()
	f.app.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("direct update on %s: %d %s", f.name, rec.Code, rec.Body.String())
	}
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func waitAllHealthy(t testing.TB, rt *Router, fixtures []*fixture) {
	t.Helper()
	for _, f := range fixtures {
		waitState(t, rt, f.name, StateHealthy)
	}
}

type updateFanBody struct {
	Epoch       uint64   `json:"epoch"`
	Fingerprint string   `json:"fingerprint"`
	Applied     []string `json:"applied"`
	Resyncing   []string `json:"resyncing"`
}

// TestUpdateFanoutAppliesEverywhere: the base case — one delta through
// the router lands on every healthy replica under the same fence, the
// fleet epoch advances by one, and every replica reports the identical
// new generation.
func TestUpdateFanoutAppliesEverywhere(t *testing.T) {
	defer leaktest.Check(t)()
	fixtures := newFixtures(t, 3, nil)
	rt := newTestRouter(t, fixtures, nil)
	waitReady(t, rt)
	waitAllHealthy(t, rt, fixtures)

	rec, body := routerPost(t, rt, "/update", `{"setWeights":[{"u":0,"v":1,"w":4}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("fanned update: %d %s", rec.Code, body)
	}
	var out updateFanBody
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Epoch != 1 || len(out.Applied) != 3 || len(out.Resyncing) != 0 {
		t.Fatalf("fan-out result: %+v", out)
	}
	if got := rec.Header().Get("X-Kpj-Epoch"); got != "1" {
		t.Fatalf("X-Kpj-Epoch = %q", got)
	}
	if fleet := rt.fleetSnapshot(); fleet.Epoch != 1 {
		t.Fatalf("fleet epoch = %d", fleet.Epoch)
	}
	for _, f := range fixtures {
		if got := f.app.Epoch(); got != 1 {
			t.Fatalf("%s epoch = %d, want 1", f.name, got)
		}
	}
	rt.Close()
	for _, f := range fixtures {
		f.srv.Close()
	}
}

// TestUpdateFanoutRejectsBadBodies: router-level input validation is
// typed and never reaches the replicas.
func TestUpdateFanoutRejectsBadBodies(t *testing.T) {
	fixtures := newFixtures(t, 1, nil)
	rt := newTestRouter(t, fixtures, func(c *Config) { c.MaxUpdateBytes = 48 })
	waitReady(t, rt)

	if rec, _ := routerPost(t, rt, "/update", "  "); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty body: %d", rec.Code)
	}
	rec, _ := routerPost(t, rt, "/update", `{"setWeights":[{"u":0,"v":1,"w":4},{"u":1,"v":0,"w":4}]}`)
	if rec.Code != http.StatusRequestEntityTooLarge || rec.Header().Get("X-Kpj-Error-Kind") != string(wire.KindTooLarge) {
		t.Fatalf("oversized body: %d kind %q, want 413 %s", rec.Code, rec.Header().Get("X-Kpj-Error-Kind"), wire.KindTooLarge)
	}
	if fixtures[0].app.Epoch() != 0 {
		t.Fatalf("rejected updates reached the replica (epoch %d)", fixtures[0].app.Epoch())
	}
}

// TestLaggingReplicaFencedAndResynced: a replica that misses an update
// (applied out-of-band to the others) is fenced down by probe epoch
// gating, resynced by snapshot transfer from a caught-up peer (the tail
// holds nothing for out-of-band updates), and readmitted only at the
// fleet generation.
func TestLaggingReplicaFencedAndResynced(t *testing.T) {
	defer leaktest.Check(t)()
	reg := obs.NewRegistry()
	fixtures := newFixtures(t, 3, nil)
	rt := newTestRouter(t, fixtures, func(c *Config) { c.Metrics = reg })
	waitReady(t, rt)
	waitAllHealthy(t, rt, fixtures)

	// r0 and r1 advance; r2 misses the delta.
	delta := `{"setWeights":[{"u":0,"v":1,"w":4}]}`
	fixtureUpdate(t, fixtures[0], delta)
	fixtureUpdate(t, fixtures[1], delta)

	// Probes adopt epoch 1 from the advanced replicas and fence r2 down
	// (the down-transition counter marks the fencing; a pre-adoption
	// probe cycle may legitimately still show it healthy before that).
	waitFor(t, "fleet to adopt epoch 1", func() bool { return rt.fleetSnapshot().Epoch == 1 })
	waitFor(t, "r2 fenced down", func() bool { return rt.met.toState[StateDown].Value() >= 1 })

	// Readmission: once fenced, r2 may only come back at the fleet state.
	waitFor(t, "r2 resynced and readmitted", func() bool {
		for _, rp := range rt.reps {
			if rp.name == "r2" && rp.State() == StateHealthy {
				if got := fixtures[2].app.Epoch(); got != 1 {
					t.Fatalf("r2 readmitted at stale epoch %d", got)
				}
				return true
			}
		}
		return false
	})
	if n := rt.met.resyncs.Value(); n < 1 {
		t.Fatalf("kpj_router_resyncs_total{result=ok} = %d, want >= 1", n)
	}

	// The next routed update extends the rejoined fleet everywhere.
	rec, body := routerPost(t, rt, "/update", `{"setWeights":[{"u":0,"v":6,"w":7}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-resync update: %d %s", rec.Code, body)
	}
	var out updateFanBody
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Epoch != 2 || len(out.Applied) != 3 {
		t.Fatalf("post-resync fan-out: %+v", out)
	}
	rt.Close()
	for _, f := range fixtures {
		f.srv.Close()
	}
}

// TestStaleRouterAdoptsFleetFromConflict: a router whose fleet view is
// behind (fresh restart) fans out with a stale fence; the replicas
// answer 409 with their real generation, and the router adopts it and
// tells the caller to retry instead of failing opaquely.
func TestStaleRouterAdoptsFleetFromConflict(t *testing.T) {
	fixtures := newFixtures(t, 2, nil)
	rt := newTestRouter(t, fixtures, func(c *Config) {
		// Slow probes: the router's fleet view stays stale during the test.
		c.ProbeInterval = time.Hour
		c.ProbeTimeout = 2 * time.Second
	})
	waitReady(t, rt)

	// Replicas advance while the router isn't looking.
	delta := `{"setWeights":[{"u":0,"v":1,"w":4}]}`
	fixtureUpdate(t, fixtures[0], delta)
	fixtureUpdate(t, fixtures[1], delta)

	rec, body := routerPost(t, rt, "/update", `{"setWeights":[{"u":0,"v":6,"w":7}]}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale-fence update: %d %s", rec.Code, body)
	}
	if kind := rec.Header().Get("X-Kpj-Error-Kind"); kind != string(wire.KindEpochConflict) {
		t.Fatalf("conflict kind = %q", kind)
	}
	if got := rec.Header().Get("X-Kpj-Epoch"); got != "1" {
		t.Fatalf("conflict X-Kpj-Epoch = %q, want 1", got)
	}
	if fleet := rt.fleetSnapshot(); fleet.Epoch != 1 {
		t.Fatalf("fleet not adopted from conflict: %s", fleet)
	}
	// The retry the 409 asked for now lands under the adopted fence.
	rec, body = routerPost(t, rt, "/update", `{"setWeights":[{"u":0,"v":6,"w":7}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("retry after adoption: %d %s", rec.Code, body)
	}
}

// TestUpdateFanoutUnderReplicaKill is the replication acceptance test:
// a replica dies mid-stream while updates keep flowing, comes back
// several epochs behind, is caught by epoch gating, caught up by
// delta-tail replay, and readmitted — never routable at a stale epoch,
// with no goroutine leaked by the kill/resync churn (run under -race).
func TestUpdateFanoutUnderReplicaKill(t *testing.T) {
	defer leaktest.Check(t)()
	var dead atomic.Bool
	mutate := func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if dead.Load() {
				// The process is "gone": an untyped 503 stands in for a
				// connection error — retried, then treated as a dead replica.
				http.Error(w, "killed", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	reg := obs.NewRegistry()
	fixtures := newFixtures(t, 3, mutate)
	rt := newTestRouter(t, fixtures, func(c *Config) {
		c.Metrics = reg
		c.DownAfter = 2
		c.MaxAttempts = 2
	})
	waitReady(t, rt)
	waitAllHealthy(t, rt, fixtures)

	update := func(i, wantApplied int) uint64 {
		t.Helper()
		w := 4 + i%7
		rec, body := routerPost(t, rt,
			"/update", fmt.Sprintf(`{"setWeights":[{"u":0,"v":1,"w":%d},{"u":1,"v":0,"w":%d}]}`, w, w))
		if rec.Code != http.StatusOK {
			t.Fatalf("update %d: %d %s", i, rec.Code, body)
		}
		var out updateFanBody
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Applied) < wantApplied {
			t.Fatalf("update %d applied on %v, want >= %d replicas", i, out.Applied, wantApplied)
		}
		return out.Epoch
	}

	// Phase 1: the full fleet takes updates 1..3.
	for i := 1; i <= 3; i++ {
		if got := update(i, 3); got != uint64(i) {
			t.Fatalf("update %d produced epoch %d", i, got)
		}
	}

	// Phase 2: r1 dies mid-stream; the chain keeps advancing on r0/r2.
	dead.Store(true)
	for i := 4; i <= 7; i++ {
		if got := update(i, 2); got != uint64(i) {
			t.Fatalf("update %d produced epoch %d", i, got)
		}
	}
	if got := fixtures[1].app.Epoch(); got != 3 {
		t.Fatalf("killed replica advanced to %d", got)
	}

	// Phase 3: r1 revives 4 epochs behind. Epoch gating keeps it down
	// until the tail replay lands it on the fleet generation; whenever it
	// is routable it must hold the fleet epoch exactly.
	dead.Store(false)
	waitFor(t, "r1 caught up and readmitted", func() bool {
		for _, rp := range rt.reps {
			if rp.name != "r1" {
				continue
			}
			if rp.State() != StateDown {
				if got, fleet := fixtures[1].app.Epoch(), rt.fleetSnapshot(); got != fleet.Epoch {
					t.Fatalf("r1 routable at epoch %d, fleet at %s", got, fleet)
				}
				return rp.State() == StateHealthy
			}
		}
		return false
	})
	if got := fixtures[1].app.Epoch(); got != 7 {
		t.Fatalf("revived replica at epoch %d, want 7", got)
	}
	// The resync goroutine counts itself after the replay that the probe
	// above already observed, so the counter may trail the readmission.
	waitFor(t, `kpj_router_resyncs_total{result="ok"} >= 1`, func() bool { return rt.met.resyncs.Value() >= 1 })

	// Phase 4: the rejoined fleet takes the stream again, everywhere.
	for i := 8; i <= 9; i++ {
		if got := update(i, 3); got != uint64(i) {
			t.Fatalf("update %d produced epoch %d", i, got)
		}
	}
	for _, f := range fixtures {
		if got := f.app.Epoch(); got != 9 {
			t.Fatalf("%s final epoch = %d, want 9", f.name, got)
		}
	}

	// Explicit teardown ahead of the deferred leak check.
	rt.Close()
	for _, f := range fixtures {
		f.srv.Close()
	}
}

// TestProbeMidFanoutLeavesSlowReplicaAlone: while a fan-out is in flight
// the replicas legitimately sit at different epochs. A probe of the fast
// one must not advance the fleet view, and a probe of the slow one must
// not fence it and resync it against its own in-flight /update — the bug
// behind TestUpdateFanoutUnderReplicaKill's "applied on [r2], want >= 2".
func TestProbeMidFanoutLeavesSlowReplicaAlone(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	fixtures := newFixtures(t, 2, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 1 && r.URL.Path == "/update" { // r1 holds the one routed update
				close(entered)
				<-release
			}
			h.ServeHTTP(w, r)
		})
	})
	rt := newTestRouter(t, fixtures, func(c *Config) {
		c.Metrics = obs.NewRegistry()
		c.ProbeInterval = time.Hour // first probe is immediate; the rest are driven below
	})
	waitAllHealthy(t, rt, fixtures)

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec, _ := routerPost(t, rt, "/update", `{"setWeights":[{"u":0,"v":1,"w":4}]}`)
		done <- rec
	}()
	<-entered
	waitFor(t, "r0 to apply while r1 is held", func() bool { return fixtures[0].app.Epoch() == 1 })

	reps := rt.reps
	for _, rp := range reps { // r0 (at epoch 1) first, then r1 (still at 0)
		rt.probe(context.Background(), rp)
	}
	if fleet, st := rt.fleetSnapshot(), reps[1].State(); fleet.Epoch != 0 || st != StateHealthy {
		t.Errorf("mid-fan-out probes moved the fleet to %s and r1 to %v", fleet, st)
	}

	unblock()
	rec := <-done
	var out updateFanBody
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("update: %d %s (%v)", rec.Code, rec.Body, err)
	}
	if out.Epoch != 1 || len(out.Applied) != 2 || len(out.Resyncing) != 0 {
		t.Errorf("fan-out result: %+v, want epoch 1 applied on both", out)
	}
	// Once the fan-out is over, probes gate as before: r1 is at the fleet.
	rt.probe(context.Background(), reps[1])
	if st, n := reps[1].State(), rt.met.toState[StateDown].Value(); st != StateHealthy || n != 0 {
		t.Errorf("after the fan-out: r1 %v, %d down transitions, want healthy and 0", st, n)
	}
}
