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

	"kpj"
	"kpj/internal/leaktest"
	"kpj/internal/obs"
	"kpj/internal/server"
	"kpj/internal/wal"
	"kpj/internal/wire"
)

// Tests for the replicated-update layer: fenced fan-out, fleet epoch
// adoption, divergence fencing, snapshot resync, and the readmission
// invariant (a replica is never routable at a stale epoch).

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
		waitState(t, rt, f.name, stateHealthy)
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
// gating, resynced by snapshot transfer from a caught-up peer, and
// readmitted only at the fleet generation.
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
	waitFor(t, "r2 fenced down", func() bool { return rt.met.toState[stateDown].Value() >= 1 })

	// Readmission: once fenced, r2 may only come back at the fleet state.
	waitFor(t, "r2 resynced and readmitted", func() bool {
		for _, rp := range rt.reps {
			if rp.name == "r2" && rp.State() == stateHealthy {
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
	// Every replica's first probe must land before the replicas advance:
	// waitReady returns once one replica is up, and a first probe still in
	// flight would read epoch 1 and adopt it, leaving no stale fence to test.
	waitReady(t, rt)
	waitAllHealthy(t, rt, fixtures)

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

// killable answers every request with an untyped 503 while dead is set:
// the process is "gone", which the router retries and then treats as a
// dead replica.
func killable(dead *atomic.Bool, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			http.Error(w, "killed", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// killableFixtures starts three replicas, of which r1 is killable.
func killableFixtures(t testing.TB, dead *atomic.Bool) []*fixture {
	return newFixtures(t, 3, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return killable(dead, h)
	})
}

// killRouter is the router configuration of the replica-kill tests.
func killRouter(t testing.TB, fixtures []*fixture) *Router {
	return newTestRouter(t, fixtures, func(c *Config) {
		c.Metrics = obs.NewRegistry()
		c.DownAfter = 2
		c.MaxAttempts = 2
	})
}

// fanUpdate routes the i-th reweight of edge (0,1) through rt, requires
// it to apply on at least wantApplied replicas, and returns the new
// fleet epoch.
func fanUpdate(t testing.TB, rt *Router, i, wantApplied int) uint64 {
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

// fanUpdates routes updates from..to, each of which must produce its own
// number as the epoch.
func fanUpdates(t testing.TB, rt *Router, from, to, wantApplied int) {
	t.Helper()
	for i := from; i <= to; i++ {
		if got := fanUpdate(t, rt, i, wantApplied); got != uint64(i) {
			t.Fatalf("update %d produced epoch %d", i, got)
		}
	}
}

// waitReadmitted waits until f's replica is healthy again, failing the
// test if it is ever routable at a generation other than the fleet's.
func waitReadmitted(t testing.TB, rt *Router, f *fixture) {
	t.Helper()
	rp := replicaNamed(rt, f.name)
	waitFor(t, f.name+" resynced and readmitted", func() bool {
		if rp.State() == stateDown {
			return false
		}
		if got, fleet := servingGen(t, f.app), rt.fleetSnapshot(); got != fleet {
			t.Fatalf("%s routable at %s, fleet at %s", f.name, got, fleet)
		}
		return rp.State() == stateHealthy
	})
}

func replicaNamed(rt *Router, name string) *replica {
	for _, rp := range rt.reps {
		if rp.name == name {
			return rp
		}
	}
	panic("no replica " + name)
}

// waitFailedProbes waits for two more failed probes of the dead replica
// name, so that its next probe reads the fleet view as the test has set
// it. A probe reads that view before it fetches /readyz; one in flight
// across a fleet adoption would gate the revived replica against the
// older view.
func waitFailedProbes(t testing.TB, rt *Router, name string) {
	t.Helper()
	rp := replicaNamed(rt, name)
	fails := func() int {
		rp.mu.Lock()
		defer rp.mu.Unlock()
		return rp.fails
	}
	from := fails()
	waitFor(t, "two more failed probes of "+name, func() bool { return fails() >= from+2 })
}

// servingGen reads a replica's serving generation from its /readyz.
func servingGen(t testing.TB, app *server.Server) wire.Gen {
	t.Helper()
	rec := httptest.NewRecorder()
	app.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var rz wire.Readyz
	if err := json.Unmarshal(rec.Body.Bytes(), &rz); err != nil {
		t.Fatalf("readyz: %v (%s)", err, rec.Body)
	}
	return wire.Gen{Epoch: rz.Epoch, FP: wire.ParseFP(rz.Fingerprint)}
}

// TestUpdateFanoutUnderReplicaKill is the replication acceptance test:
// a replica dies mid-stream while updates keep flowing, comes back
// several epochs behind, is caught by epoch gating, caught up by a
// snapshot resync, and readmitted — never routable at a stale epoch,
// with no goroutine leaked by the kill/resync churn (run under -race).
func TestUpdateFanoutUnderReplicaKill(t *testing.T) {
	defer leaktest.Check(t)()
	var dead atomic.Bool
	fixtures := killableFixtures(t, &dead)
	rt := killRouter(t, fixtures)
	waitReady(t, rt)
	waitAllHealthy(t, rt, fixtures)

	// Phase 1: the full fleet takes updates 1..3.
	fanUpdates(t, rt, 1, 3, 3)

	// Phase 2: r1 dies mid-stream; the chain keeps advancing on r0/r2.
	dead.Store(true)
	fanUpdates(t, rt, 4, 7, 2)
	if got := fixtures[1].app.Epoch(); got != 3 {
		t.Fatalf("killed replica advanced to %d", got)
	}

	// Phase 3: r1 revives 4 epochs behind. Epoch gating keeps it down
	// until the snapshot resync lands it on the fleet generation.
	dead.Store(false)
	waitReadmitted(t, rt, fixtures[1])
	if got := fixtures[1].app.Epoch(); got != 7 {
		t.Fatalf("revived replica at epoch %d, want 7", got)
	}
	// The resync goroutine counts itself after the transfer that the probe
	// above already observed, so the counter may trail the readmission.
	waitFor(t, `kpj_router_resyncs_total{result="ok"} >= 1`, func() bool { return rt.met.resyncs.Value() >= 1 })

	// Phase 4: the rejoined fleet takes the stream again, everywhere.
	fanUpdates(t, rt, 8, 9, 3)
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

// TestRestartedRouterResyncsLaggingReplica: catch-up needs no state held
// by the router. The router that saw r1 die is closed while r1 lags four
// epochs; a fresh router over the same replicas re-learns the fleet
// generation from its probes and brings r1 back by snapshot.
func TestRestartedRouterResyncsLaggingReplica(t *testing.T) {
	defer leaktest.Check(t)()
	var dead atomic.Bool
	fixtures := killableFixtures(t, &dead)
	old := killRouter(t, fixtures)
	waitReady(t, old)
	waitAllHealthy(t, old, fixtures)
	fanUpdates(t, old, 1, 3, 3)
	dead.Store(true)
	fanUpdates(t, old, 4, 7, 2)
	old.Close()

	rt := killRouter(t, fixtures)
	// r1 stays dead until the new router has adopted the fleet from r0 or
	// r2: probed first at epoch 3, it would define a stale fleet.
	waitFor(t, "new router to adopt epoch 7", func() bool { return rt.fleetSnapshot().Epoch == 7 })
	waitFailedProbes(t, rt, "r1")
	dead.Store(false)
	waitReadmitted(t, rt, fixtures[1])
	if got := fixtures[1].app.Epoch(); got != 7 {
		t.Fatalf("revived replica at epoch %d, want 7", got)
	}
	waitFor(t, `kpj_router_resyncs_total{result="ok"} >= 1 on the new router`,
		func() bool { return rt.met.resyncs.Value() >= 1 })

	rt.Close()
	for _, f := range fixtures {
		f.srv.Close()
	}
}

// TestSameEpochDivergenceResynced: a replica that diverges at the fleet's
// epoch (r0 and r1 reweight (0,1) to 4 out of band, r2 to 5) is fenced
// down and brought back by a snapshot at that same epoch, with no further
// update to move the fleet. r2 is WAL-backed and checkpoints every epoch,
// so the resync replaces a checkpoint at its own epoch; a restart from
// that WAL recovers the fleet's generation.
func TestSameEpochDivergenceResynced(t *testing.T) {
	defer leaktest.Check(t)()
	var dead atomic.Bool
	fixtures := newFixtures(t, 2, nil)
	dir := t.TempDir()
	r2, lg := walFixture(t, "r2", dir, &dead)
	fixtures = append(fixtures, r2)
	rt := newTestRouter(t, fixtures, func(c *Config) { c.Metrics = obs.NewRegistry() })
	waitReady(t, rt)
	waitAllHealthy(t, rt, fixtures)

	// r2 is down and unreachable while the fleet adopts r0/r1's
	// generation, so the first generation adopted at epoch 1 is theirs.
	dead.Store(true)
	waitState(t, rt, "r2", stateDown)
	fixtureUpdate(t, fixtures[0], `{"setWeights":[{"u":0,"v":1,"w":4}]}`)
	fixtureUpdate(t, fixtures[1], `{"setWeights":[{"u":0,"v":1,"w":4}]}`)
	fixtureUpdate(t, r2, `{"setWeights":[{"u":0,"v":1,"w":5}]}`)
	want := servingGen(t, fixtures[0].app)
	if got := servingGen(t, r2.app); got.Epoch != 1 || got == want {
		t.Fatalf("r2 at %s, want a divergent generation at epoch 1 (fleet %s)", got, want)
	}
	waitFor(t, "fleet to adopt r0's epoch 1", func() bool { return rt.fleetSnapshot() == want })
	waitFailedProbes(t, rt, "r2")

	dead.Store(false)
	waitReadmitted(t, rt, r2)
	if got := servingGen(t, r2.app); got != want {
		t.Fatalf("r2 readmitted at %s, want %s", got, want)
	}
	rt.Close()
	for _, f := range fixtures {
		f.srv.Close()
	}

	// Restart r2 from its WAL: the resync's checkpoint is the chain.
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	lg2, rec, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if rec.CheckpointPath == "" || rec.CheckpointEpoch != 1 || len(rec.Records) != 0 {
		t.Fatalf("recovery after resync: checkpoint %q at epoch %d, %d records",
			rec.CheckpointPath, rec.CheckpointEpoch, len(rec.Records))
	}
	g, ix, _, err := kpj.OpenFlat(rec.CheckpointPath, false)
	if err != nil {
		t.Fatal(err)
	}
	app := server.New(g, ix, server.WithWAL(lg2, 1), server.WithLogf(t.Logf))
	if err := app.Recover(rec); err != nil {
		t.Fatal(err)
	}
	if got := servingGen(t, app); got != want {
		t.Fatalf("restarted r2 at %s, want %s", got, want)
	}
}

// walFixture starts one replica over the shared fixture graph, backed by
// a write-ahead log in dir that checkpoints every epoch, and killable.
func walFixture(t testing.TB, name, dir string, dead *atomic.Bool) (*fixture, *wal.Log) {
	t.Helper()
	g, ix := testGraphIndex(t)
	lg, rec, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	app := server.New(g, ix, server.WithWAL(lg, 1), server.WithLogf(t.Logf))
	if err := app.Recover(rec); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(killable(dead, app))
	t.Cleanup(srv.Close)
	return &fixture{name: name, app: app, srv: srv}, lg
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
	if fleet, st := rt.fleetSnapshot(), reps[1].State(); fleet.Epoch != 0 || st != stateHealthy {
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
	if st, n := reps[1].State(), rt.met.toState[stateDown].Value(); st != stateHealthy || n != 0 {
		t.Errorf("after the fan-out: r1 %v, %d down transitions, want healthy and 0", st, n)
	}
}
