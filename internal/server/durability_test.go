package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"kpj"
	"kpj/internal/fault"
	"kpj/internal/gen"
	"kpj/internal/graph"
	"kpj/internal/leaktest"
	"kpj/internal/wal"
	"kpj/internal/wire"
)

// fingerprint is ep's fingerprint in wire form ("" when unindexed).
func fingerprint(ep *epochState) string { return ep.gen().Fingerprint() }

// This file is the durability suite: the seeded crash-recovery harness
// (churn schedule, WAL-append crash, torn tail, restart, replay, then
// state equality against an uninterrupted in-memory chain across every
// engine), plus the endpoint-level contracts the routing tier depends
// on — epoch headers, fencing, 413s, snapshot/resync, and readyz gating
// during replay.

// allEngines is every named algorithm the server exposes; recovered
// state must answer identically on all of them.
var allEngines = kpj.Algorithms()

// churnWorld builds one seeded random city in both graph representations
// (kpj for the server, internal/graph for gen.Churn) from the same
// DIMACS bytes, with two POI categories present in both views.
func churnWorld(t testing.TB, seed int) (*kpj.Graph, *graph.Graph) {
	t.Helper()
	const w, h = 5, 4
	n := w * h
	rng := rand.New(rand.NewSource(int64(40_000 + seed)))
	id := func(x, y int) int64 { return int64(y*w + x) }
	var edges [][3]int64
	add := func(u, v int64) {
		wt := int64(5 + rng.Intn(20))
		edges = append(edges, [3]int64{u, v, wt}, [3]int64{v, u, wt})
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				add(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				add(id(x, y), id(x, y+1))
			}
		}
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "p sp %d %d\n", n, len(edges))
	for _, e := range edges {
		fmt.Fprintf(&buf, "a %d %d %d\n", e[0]+1, e[1]+1, e[2])
	}
	g, err := kpj.ReadGraph(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	og, err := graph.ReadGr(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadGr: %v", err)
	}
	for _, c := range []struct {
		name  string
		nodes []int64
	}{
		{"poi", []int64{2, 9, 17}},
		{"depot", []int64{0, 19}},
	} {
		kn := make([]kpj.NodeID, len(c.nodes))
		on := make([]graph.NodeID, len(c.nodes))
		for i, v := range c.nodes {
			kn[i], on[i] = kpj.NodeID(v), graph.NodeID(v)
		}
		if err := g.AddCategory(c.name, kn); err != nil {
			t.Fatal(err)
		}
		if err := og.AddCategory(c.name, on); err != nil {
			t.Fatal(err)
		}
	}
	return g, og
}

func deltaJSON(t testing.TB, d *graph.Delta) string {
	t.Helper()
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// mustUpdate posts one delta and requires the epoch to advance.
func mustUpdate(t testing.TB, s *Server, d *graph.Delta) {
	t.Helper()
	rec, body := postUpdate(t, s, deltaJSON(t, d))
	if rec.Code != http.StatusOK {
		t.Fatalf("update: %d %s (delta %s)", rec.Code, body, deltaJSON(t, d))
	}
}

// engineAnswers runs one query across every engine and renders each
// response (status, epoch, fingerprint, paths) into a comparable string.
func engineAnswers(t *testing.T, s *Server, query string) map[kpj.Algorithm]string {
	t.Helper()
	out := make(map[kpj.Algorithm]string, len(allEngines))
	for _, alg := range allEngines {
		rec, body := get(t, s, query+"&alg="+alg.String())
		var q struct {
			Paths       []PathJSON `json:"paths"`
			Epoch       uint64     `json:"epoch"`
			Fingerprint string     `json:"fingerprint"`
		}
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(body, &q); err != nil {
				t.Fatalf("%s %s: %v", alg, query, err)
			}
		}
		paths, err := json.Marshal(q.Paths)
		if err != nil {
			t.Fatal(err)
		}
		out[alg] = fmt.Sprintf("%d epoch=%d fp=%s %s", rec.Code, q.Epoch, q.Fingerprint, paths)
	}
	return out
}

var crashQueries = []string{
	"/query?source=0&category=poi&k=4",
	"/query?source=1&target=17&k=3",
	"/query?source=3&category=depot&k=2",
}

// assertSameState requires two servers to be indistinguishable: same
// epoch, same index fingerprint, and identical answers from every
// engine on every probe query.
func assertSameState(t *testing.T, phase string, want, got *Server) {
	t.Helper()
	if we, ge := want.Epoch(), got.Epoch(); we != ge {
		t.Fatalf("%s: epoch %d, want %d", phase, ge, we)
	}
	if wf, gf := fingerprint(want.snapshot()), fingerprint(got.snapshot()); wf != gf {
		t.Fatalf("%s: fingerprint %s, want %s", phase, gf, wf)
	}
	for _, q := range crashQueries {
		wa, ga := engineAnswers(t, want, q), engineAnswers(t, got, q)
		for _, alg := range allEngines {
			if wa[alg] != ga[alg] {
				t.Fatalf("%s: %s %s diverged:\n  recovered: %s\n  oracle:    %s", phase, q, alg, ga[alg], wa[alg])
			}
		}
	}
}

// tearTail simulates the torn final write of a crash: seeded junk bytes
// appended to the active WAL segment, which recovery must drop.
func tearTail(t *testing.T, dir string, seed int) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segment in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(7_000 + seed)))
	junk := make([]byte, 1+rng.Intn(48))
	rng.Read(junk)
	if _, err := f.Write(junk); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func readCheckpointFile(t *testing.T, path string) (*kpj.Graph, *kpj.Index) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, ix, err := kpj.ReadFlat(f)
	if err != nil {
		t.Fatalf("checkpoint %s: %v", path, err)
	}
	return g, ix
}

// TestCrashRecoveryChurn is the crash harness: 20 seeded churn schedules,
// each crashed at a seed-chosen point by a WAL append fault plus a torn
// tail, recovered from checkpoint + log suffix, and required to be
// indistinguishable — epoch, fingerprint, and every engine's answers —
// from an uninterrupted in-memory chain.
func TestCrashRecoveryChurn(t *testing.T) {
	for seed := 0; seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCrashSeed(t, seed)
		})
	}
}

func runCrashSeed(t *testing.T, seed int) {
	g, og := churnWorld(t, seed)
	ixMem, err := kpj.BuildIndex(g, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	ixWAL, err := kpj.BuildIndex(g, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	schedule, _, err := gen.Churn(og, gen.ChurnConfig{Steps: 6, Ops: 5, Seed: int64(1_000 + seed)})
	if err != nil {
		t.Fatal(err)
	}

	mem := New(g, ixMem, WithLogf(t.Logf))

	dir := t.TempDir()
	lg, rec0, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec0.CheckpointPath != "" || len(rec0.Records) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec0)
	}
	dsrv := New(g, ixWAL, WithWAL(lg, 3), WithLogf(t.Logf))
	if err := dsrv.Recover(rec0); err != nil {
		t.Fatal(err)
	}

	// Phase 1: both chains advance in lockstep until the crash point.
	crashAt := seed % len(schedule)
	for i := 0; i < crashAt; i++ {
		mustUpdate(t, mem, schedule[i])
		mustUpdate(t, dsrv, schedule[i])
	}

	// The crash: the next update's WAL append fails after the delta
	// applied in memory. Durable-before-observable means the epoch must
	// NOT move — the caller saw 500, so recovery must not produce it.
	fault.Install(fault.New().Add(fault.Rule{Point: fault.WALAppend, Nth: 1, Count: 1, Kind: fault.KindError}))
	rec, body := postUpdate(t, dsrv, deltaJSON(t, schedule[crashAt]))
	fault.Install(nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("crashed update: %d %s", rec.Code, body)
	}
	if kind := rec.Header().Get("X-Kpj-Error-Kind"); kind != string(wire.KindWAL) {
		t.Fatalf("crashed update kind = %q, want %q", kind, string(wire.KindWAL))
	}
	if got := dsrv.Epoch(); got != uint64(crashAt) {
		t.Fatalf("failed append moved the epoch to %d", got)
	}

	// The process dies: close the log and tear its tail.
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	tearTail(t, dir, seed)

	// Restart: open the directory, load the newest checkpoint (or the
	// seed state when none was reached), and replay the suffix.
	lg2, rec2, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if rec2.TruncatedBytes == 0 {
		t.Fatal("torn tail was not truncated")
	}
	if got := rec2.LastEpoch(); got != uint64(crashAt) {
		t.Fatalf("durable epoch after crash = %d, want %d", got, crashAt)
	}
	rg, rix := g, ixWAL
	if rec2.CheckpointPath != "" {
		rg, rix = readCheckpointFile(t, rec2.CheckpointPath)
	}
	rsrv := New(rg, rix, WithWAL(lg2, 3), WithLogf(t.Logf))
	if ready, why := rsrv.readiness(); ready {
		t.Fatalf("ready before recovery (%s)", why)
	}
	if err := rsrv.Recover(rec2); err != nil {
		t.Fatal(err)
	}
	if ready, why := rsrv.readiness(); !ready {
		t.Fatalf("not ready after recovery: %s", why)
	}
	assertSameState(t, "post-crash", mem, rsrv)

	// Phase 2: the chain continues on the recovered server; both finish
	// the schedule and must still agree everywhere.
	for i := crashAt; i < len(schedule); i++ {
		mustUpdate(t, mem, schedule[i])
		mustUpdate(t, rsrv, schedule[i])
	}
	if got := rsrv.Epoch(); got != uint64(len(schedule)) {
		t.Fatalf("final epoch = %d, want %d", got, len(schedule))
	}
	assertSameState(t, "final", mem, rsrv)
}

// TestRecoveryGatesReadyz: a WAL-configured server reports not-ready
// (503, "recovering") until Recover completes, so a router never routes
// to a replica that has not proven its chain.
func TestRecoveryGatesReadyz(t *testing.T) {
	dir := t.TempDir()
	lg, rec0, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	s, _ := testServer(t, WithWAL(lg, 0), WithLogf(t.Logf))
	rec, body := get(t, s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(string(body), "recovering") {
		t.Fatalf("readyz during recovery: %d %s", rec.Code, body)
	}
	if err := s.Recover(rec0); err != nil {
		t.Fatal(err)
	}
	if rec, body = get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after recovery: %d %s", rec.Code, body)
	}
}

// TestWALFsyncFaultKeepsEpoch: a failed fsync during append answers 500
// kind "wal", keeps the epoch, and the log stays appendable — the torn
// frame is rolled back, so the retry lands cleanly.
func TestWALFsyncFaultKeepsEpoch(t *testing.T) {
	defer leaktest.Check(t)()
	dir := t.TempDir()
	lg, rec0, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	s, _ := testServer(t, WithWAL(lg, 0), WithLogf(t.Logf))
	if err := s.Recover(rec0); err != nil {
		t.Fatal(err)
	}
	installFaults(t, fault.New().Add(fault.Rule{Point: fault.WALFsync, Nth: 1, Count: 1, Kind: fault.KindError}))

	delta := `{"setWeights":[{"u":0,"v":1,"w":4}]}`
	rec, body := postUpdate(t, s, delta)
	if rec.Code != http.StatusInternalServerError || rec.Header().Get("X-Kpj-Error-Kind") != string(wire.KindWAL) {
		t.Fatalf("faulted append: %d kind=%q %s", rec.Code, rec.Header().Get("X-Kpj-Error-Kind"), body)
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("failed append moved the epoch to %d", got)
	}
	if rec, body = postUpdate(t, s, delta); rec.Code != http.StatusOK {
		t.Fatalf("retry: %d %s", rec.Code, body)
	}
	if got, want := s.Epoch(), uint64(1); got != want {
		t.Fatalf("epoch after retry = %d", got)
	}
	if got := lg.LastEpoch(); got != 1 {
		t.Fatalf("durable epoch = %d, want 1", got)
	}
}

// TestFailedAppendThenCollidingDeltaAnswersExact: a delta whose WAL append
// fails never serves, and a later, different delta with the same
// weight-sum change — the same fingerprint, which is (n, m, Σw) +
// landmarks — must answer exactly what a server built from scratch over
// the resulting graph answers. State derived from the failed successor
// and keyed by fingerprint would be hit by the second delta and serve
// bounds of an index that never served.
func TestFailedAppendThenCollidingDeltaAnswersExact(t *testing.T) {
	defer leaktest.Check(t)()
	lg, rec0, err := wal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	s, _ := testServer(t, WithWAL(lg, 0), WithLogf(t.Logf))
	if err := s.Recover(rec0); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"/query?source=28&category=hotel&k=4",
		"/query?source=0&category=hotel&k=4",
		"/query?source=34&category=hotel&k=6",
	}
	before := map[string]map[kpj.Algorithm]string{}
	for _, q := range queries {
		before[q] = engineAnswers(t, s, q)
	}

	// +7 on (0,1), not durable: a 500, and epoch 0 still serves.
	installFaults(t, fault.New().Add(fault.Rule{Point: fault.WALAppend, Nth: 1, Count: 1, Kind: fault.KindError}))
	rec, body := postUpdate(t, s, `{"setWeights":[{"u":0,"v":1,"w":17}]}`)
	if rec.Code != http.StatusInternalServerError || s.Epoch() != 0 {
		t.Fatalf("faulted append: %d %s, epoch %d", rec.Code, body, s.Epoch())
	}
	for _, q := range queries {
		if got := engineAnswers(t, s, q); !reflect.DeepEqual(got, before[q]) {
			t.Fatalf("%s: a failed update changed the answers:\n  before: %v\n  after:  %v", q, before[q], got)
		}
	}

	// A different delta with the same weight-sum change (-9 +16 = +7), this
	// one lowering distances into hotel node 35.
	rec, body = postUpdate(t, s, `{"setWeights":[{"u":29,"v":35,"w":1},{"u":0,"v":6,"w":26}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("update: %d %s", rec.Code, body)
	}
	g := s.snapshot().g
	ix, err := kpj.BuildIndex(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	scratch := New(g, ix)
	answer := func(a string) string { f := strings.Fields(a); return f[0] + " " + f[3] } // status + paths
	for _, q := range queries {
		got, want := engineAnswers(t, s, q), engineAnswers(t, scratch, q)
		for _, alg := range allEngines {
			if answer(got[alg]) != answer(want[alg]) {
				t.Fatalf("%s %s:\n  served:       %s\n  from scratch: %s", q, alg, got[alg], want[alg])
			}
		}
	}
}

// TestUpdateOversized: a body over WithMaxUpdateBytes is a typed 413,
// not a misleading bad-JSON 400, and does not move the epoch.
func TestUpdateOversized(t *testing.T) {
	s, _ := testServer(t, WithLogf(t.Logf), WithMaxUpdateBytes(48))
	rec, body := postUpdate(t, s, `{"setWeights":[{"u":0,"v":1,"w":4},{"u":1,"v":0,"w":4}]}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized update: %d %s", rec.Code, body)
	}
	var e struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != string(wire.KindTooLarge) || e.Error == "" {
		t.Fatalf("413 body = %s", body)
	}
	if got := rec.Header().Get("X-Kpj-Error-Kind"); got != string(wire.KindTooLarge) {
		t.Fatalf("413 kind header = %q", got)
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("oversized update moved the epoch to %d", got)
	}
	// Under the cap the same endpoint still applies deltas.
	if rec, body = postUpdate(t, s, `{"setWeights":[{"u":0,"v":1,"w":4}]}`); rec.Code != http.StatusOK {
		t.Fatalf("in-bounds update: %d %s", rec.Code, body)
	}
}

func postUpdateFenced(t *testing.T, s *Server, body string, headers map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(body))
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestUpdateFencing drives the X-Kpj-Expect-* precondition headers: a
// matching fence applies, a stale or diverged fence is a 409 carrying
// the current generation, and malformed fences are 400s.
func TestUpdateFencing(t *testing.T) {
	s, _ := testServer(t, WithLogf(t.Logf))
	delta := `{"setWeights":[{"u":0,"v":1,"w":4}]}`
	fp0 := fingerprint(s.snapshot())
	if fp0 == "" {
		t.Fatal("testServer should be indexed")
	}

	rec := postUpdateFenced(t, s, delta, map[string]string{
		"X-Kpj-Expect-Epoch": "0", "X-Kpj-Expect-Fingerprint": fp0,
	})
	if rec.Code != http.StatusOK || rec.Header().Get("X-Kpj-Epoch") != "1" {
		t.Fatalf("fenced update: %d epoch=%q %s", rec.Code, rec.Header().Get("X-Kpj-Epoch"), rec.Body.String())
	}

	// Replaying the same fence is stale: 409, epoch unchanged, and the
	// response names the current generation so the caller can decide.
	rec = postUpdateFenced(t, s, delta, map[string]string{
		"X-Kpj-Expect-Epoch": "0", "X-Kpj-Expect-Fingerprint": fp0,
	})
	if rec.Code != http.StatusConflict || rec.Header().Get("X-Kpj-Error-Kind") != string(wire.KindEpochConflict) {
		t.Fatalf("stale fence: %d kind=%q", rec.Code, rec.Header().Get("X-Kpj-Error-Kind"))
	}
	if rec.Header().Get("X-Kpj-Epoch") != "1" {
		t.Fatalf("409 epoch header = %q, want 1", rec.Header().Get("X-Kpj-Epoch"))
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("stale fence moved the epoch to %d", got)
	}

	// Right epoch, wrong fingerprint: divergence, also a 409. (An
	// all-zero fingerprint is the unchecked fence, so use another.)
	rec = postUpdateFenced(t, s, delta, map[string]string{
		"X-Kpj-Expect-Epoch": "1", "X-Kpj-Expect-Fingerprint": "00000000000000ff",
	})
	if rec.Code != http.StatusConflict {
		t.Fatalf("diverged fence: %d", rec.Code)
	}

	// Correct fence extends the chain.
	rec = postUpdateFenced(t, s, delta, map[string]string{
		"X-Kpj-Expect-Epoch": "1", "X-Kpj-Expect-Fingerprint": fingerprint(s.snapshot()),
	})
	if rec.Code != http.StatusOK || s.Epoch() != 2 {
		t.Fatalf("fenced update at epoch 1: %d (epoch %d)", rec.Code, s.Epoch())
	}

	// Malformed fences are client errors, not conflicts.
	if rec = postUpdateFenced(t, s, delta, map[string]string{"X-Kpj-Expect-Epoch": "x"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad epoch header: %d", rec.Code)
	}
	if rec = postUpdateFenced(t, s, delta, map[string]string{"X-Kpj-Expect-Fingerprint": "abc"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("fingerprint without epoch: %d", rec.Code)
	}
	if rec = postUpdateFenced(t, s, delta, map[string]string{
		"X-Kpj-Expect-Epoch": "2", "X-Kpj-Expect-Fingerprint": "xyz",
	}); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad fingerprint header: %d", rec.Code)
	}
	if got := s.Epoch(); got != 2 {
		t.Fatalf("malformed fences moved the epoch to %d", got)
	}
}

// TestEpochHeadersOnResponses: every query and update response — success
// or error — carries X-Kpj-Epoch (and X-Kpj-Fingerprint when indexed),
// so the routing tier can detect divergence without parsing bodies.
func TestEpochHeadersOnResponses(t *testing.T) {
	s, _ := testServer(t, WithLogf(t.Logf))
	rec, _ := get(t, s, "/query?source=0&target=1&k=1")
	if rec.Header().Get("X-Kpj-Epoch") != "0" || len(rec.Header().Get("X-Kpj-Fingerprint")) != 16 {
		t.Fatalf("query headers: epoch=%q fp=%q", rec.Header().Get("X-Kpj-Epoch"), rec.Header().Get("X-Kpj-Fingerprint"))
	}
	rec, body := postUpdate(t, s, `{"setWeights":[{"u":0,"v":1,"w":4}]}`)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Kpj-Epoch") != "1" {
		t.Fatalf("update headers: %d epoch=%q %s", rec.Code, rec.Header().Get("X-Kpj-Epoch"), body)
	}
	// Error responses are stamped too: the epoch is known before parsing.
	rec, _ = get(t, s, "/query?source=0&target=1&k=1&alg=nope")
	if rec.Code != http.StatusBadRequest || rec.Header().Get("X-Kpj-Epoch") != "1" {
		t.Fatalf("error query headers: %d epoch=%q", rec.Code, rec.Header().Get("X-Kpj-Epoch"))
	}
}

// TestSnapshotResyncDurable walks the router's readmission path between
// two real servers: GET /snapshot from a replica two epochs ahead, POST
// /resync into a WAL-backed replica at epoch 0, which must checkpoint
// before publishing and then survive a restart at the resynced epoch.
// Fencing holds throughout: a replayed or stale snapshot is a 409.
func TestSnapshotResyncDurable(t *testing.T) {
	a, _ := testServer(t, WithLogf(t.Logf))
	for _, d := range []string{
		`{"setWeights":[{"u":0,"v":1,"w":4}]}`,
		`{"setWeights":[{"u":0,"v":6,"w":7}]}`,
	} {
		if rec, body := postUpdate(t, a, d); rec.Code != http.StatusOK {
			t.Fatalf("seed update: %d %s", rec.Code, body)
		}
	}
	rec, snap := get(t, a, "/snapshot")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Kpj-Epoch") != "2" {
		t.Fatalf("snapshot: %d epoch=%q", rec.Code, rec.Header().Get("X-Kpj-Epoch"))
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("snapshot content-type %q", ct)
	}

	dir := t.TempDir()
	lg, rec0, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := testServer(t, WithWAL(lg, 0), WithLogf(t.Logf))
	if err := b.Recover(rec0); err != nil {
		t.Fatal(err)
	}

	resync := func(epoch string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/resync", bytes.NewReader(body))
		if epoch != "" {
			req.Header.Set("X-Kpj-Epoch", epoch)
		}
		w := httptest.NewRecorder()
		b.ServeHTTP(w, req)
		return w
	}

	if w := resync("", snap); w.Code != http.StatusBadRequest {
		t.Fatalf("resync without epoch header: %d", w.Code)
	}
	if w := resync("5", []byte("garbage")); w.Code != http.StatusBadRequest {
		t.Fatalf("resync with garbage body: %d", w.Code)
	}
	w := resync("2", snap)
	if w.Code != http.StatusOK || b.Epoch() != 2 {
		t.Fatalf("resync: %d %s (epoch %d)", w.Code, w.Body.String(), b.Epoch())
	}
	if fa, fb := fingerprint(a.snapshot()), fingerprint(b.snapshot()); fa != fb {
		t.Fatalf("post-resync fingerprint %s, source %s", fb, fa)
	}
	for _, q := range []string{"/query?source=0&target=1&k=2", "/query?source=0&category=hotel&k=3"} {
		wa, wb := engineAnswers(t, a, q), engineAnswers(t, b, q)
		for _, alg := range allEngines {
			if wa[alg] != wb[alg] {
				t.Fatalf("%s %s: resynced replica diverged:\n  a: %s\n  b: %s", q, alg, wa[alg], wb[alg])
			}
		}
	}
	// Replaying the snapshot cannot rewind or re-apply: epoch fencing.
	if w := resync("2", snap); w.Code != http.StatusConflict || w.Header().Get("X-Kpj-Error-Kind") != string(wire.KindEpochConflict) {
		t.Fatalf("replayed resync: %d kind=%q", w.Code, w.Header().Get("X-Kpj-Error-Kind"))
	}

	// The resync checkpointed before publishing: a restart recovers to
	// the resynced epoch with zero records to replay.
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	lg2, rec2, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if rec2.CheckpointEpoch != 2 || len(rec2.Records) != 0 {
		t.Fatalf("post-resync recovery: checkpoint epoch %d, %d records", rec2.CheckpointEpoch, len(rec2.Records))
	}
	rg, rix := readCheckpointFile(t, rec2.CheckpointPath)
	b2 := New(rg, rix, WithWAL(lg2, 0), WithLogf(t.Logf))
	if err := b2.Recover(rec2); err != nil {
		t.Fatal(err)
	}
	if b2.Epoch() != 2 || fingerprint(b2.snapshot()) != fingerprint(a.snapshot()) {
		t.Fatalf("restarted replica: epoch %d fp %s", b2.Epoch(), fingerprint(b2.snapshot()))
	}
}

// TestReloadRacingUpdateEpochNeverRegresses races SIGHUP-style index
// reloads against a stream of live updates on a WAL-backed server. The
// contract (DESIGN.md §15): both are epoch bumps serialized under the
// update mutex, so an observer polling the epoch must see a strictly
// monotone sequence, every update must succeed, every reload must either
// swap (the serving graph is the file's) or be refused with
// ErrGraphMismatch (an update moved the graph away from it), and a
// crash-free restart must recover to the exact final epoch. The update
// stream alternates between a reweighted graph and the file's own, so
// both reload outcomes are reachable at every step.
func TestReloadRacingUpdateEpochNeverRegresses(t *testing.T) {
	defer leaktest.Check(t)()
	dir := t.TempDir()
	lg, rec0, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, g := testServer(t, WithWAL(lg, 4), WithLogf(t.Logf))
	if err := s.Recover(rec0); err != nil {
		t.Fatal(err)
	}
	path := writeReloadFile(t, g)

	const rounds = 16
	stop := make(chan struct{})
	errs := make(chan error, 8)
	var observer, updater sync.WaitGroup

	// The observer: the serving epoch must never be seen going backward,
	// no matter how reload and update epoch bumps interleave.
	observer.Add(1)
	go func() {
		defer observer.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := s.Epoch()
			if e < last {
				errs <- fmt.Errorf("epoch regressed: %d after %d", e, last)
				return
			}
			last = e
		}
	}()

	// The updater: odd rounds shift weight between the two directions of
	// one segment (sum conserved, so only a content comparison tells the
	// graphs apart), even rounds restore the file's weights.
	updater.Add(1)
	go func() {
		defer updater.Done()
		for i := 1; i <= rounds; i++ {
			w1, w2 := 10, 10
			if i%2 == 1 {
				w1, w2 = 4, 16
			}
			rec, body := postUpdate(t, s, fmt.Sprintf(`{"setWeights":[{"u":0,"v":1,"w":%d},{"u":1,"v":0,"w":%d}]}`, w1, w2))
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("update %d: %d %s", i, rec.Code, body)
				return
			}
		}
	}()

	// The reloader (the SIGHUP path), racing the update stream.
	swapped := 0
	for i := 0; i < rounds; i++ {
		switch err := s.ReloadIndex(path); {
		case err == nil:
			swapped++
		case !errors.Is(err, kpj.ErrGraphMismatch):
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	updater.Wait()
	close(stop)
	observer.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("%d of %d reloads swapped, the rest were refused", swapped, rounds)
	final := s.Epoch()
	if final != uint64(rounds+swapped) {
		t.Fatalf("final epoch = %d, want %d (%d updates + %d successful reloads)", final, rounds+swapped, rounds, swapped)
	}

	// Crash-free restart: checkpoints (every reload, plus the periodic
	// policy) and the record suffix must reproduce the exact final state.
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	lg2, rec2, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if rec2.CheckpointPath == "" {
		t.Fatal("no checkpoint after reload+update run")
	}
	rg, rix := readCheckpointFile(t, rec2.CheckpointPath)
	s2 := New(rg, rix, WithWAL(lg2, 4), WithLogf(t.Logf))
	if err := s2.Recover(rec2); err != nil {
		t.Fatal(err)
	}
	if s2.Epoch() != final || fingerprint(s2.snapshot()) != fingerprint(s.snapshot()) {
		t.Fatalf("restart: epoch %d fp %s, live %d fp %s",
			s2.Epoch(), fingerprint(s2.snapshot()), final, fingerprint(s.snapshot()))
	}
}
