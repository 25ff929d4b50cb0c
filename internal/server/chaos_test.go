package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kpj"
	"kpj/internal/fault"
	"kpj/internal/flatindex"
	"kpj/internal/leaktest"
	"kpj/internal/wire"
)

// Server-side chaos tests: an injected fault at the server.handler point,
// or a reload of a corrupt file, must fail the request it hits (typed
// 500, old index kept), never corrupt service; a query cut short by its
// budget answers a truncated prefix. A failed update is covered by
// TestUpdateFaultKeepsEpoch.

func installFaults(t *testing.T, r *fault.Registry) {
	t.Helper()
	fault.Install(r)
	t.Cleanup(func() { fault.Install(nil) })
}

// cleanAnswer returns the fault-free answer to url.
func cleanAnswer(t *testing.T, s *Server, url string) QueryResponse {
	t.Helper()
	rec, body := get(t, s, url)
	var out QueryResponse
	if rec.Code != http.StatusOK || json.Unmarshal(body, &out) != nil || out.Truncated {
		t.Fatalf("clean query: status %d (%s)", rec.Code, body)
	}
	return out
}

// wantExactAfterFaults asserts the first query after a fault window is
// answered in full, equal to the fault-free answer.
func wantExactAfterFaults(t *testing.T, s *Server, url string, clean QueryResponse) {
	t.Helper()
	rec, body := get(t, s, url)
	var out QueryResponse
	if rec.Code != http.StatusOK || json.Unmarshal(body, &out) != nil || out.Truncated ||
		!reflect.DeepEqual(out.Paths, clean.Paths) {
		t.Fatalf("query after the fault window: status %d (%s), want the clean answer", rec.Code, body)
	}
}

// TestBreakerDegradedMode: there is no query breaker and no degraded
// profile. Each request of a two-request server.handler fault window is a
// typed 500 of kind "internal" (no degraded retry, no X-Kpj-Degraded
// header), /healthz stays "ok", and the next
// query is exact — a fault window never switches the server into another
// mode.
func TestBreakerDegradedMode(t *testing.T) {
	defer leaktest.Check(t)()
	s, _ := testServer(t)
	const url = "/query?source=0&category=hotel&k=3"
	clean := cleanAnswer(t, s, url)
	if len(clean.Paths) != 3 {
		t.Fatalf("clean query: %d paths, want 3", len(clean.Paths))
	}

	installFaults(t, fault.New().Add(
		fault.Rule{Point: fault.ServerHandler, Nth: 1, Count: 2}))
	for i := 1; i <= 2; i++ {
		rec, body := get(t, s, url)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("req %d: status %d, want 500 (%s)", i, rec.Code, body)
		}
		if kind := rec.Header().Get(wire.HeaderErrorKind); kind != string(wire.KindInternal) {
			t.Fatalf("req %d: error kind %q, want %q", i, kind, wire.KindInternal)
		}
		if rec.Header().Get("X-Kpj-Degraded") != "" {
			t.Fatalf("req %d: X-Kpj-Degraded set; no degraded retry exists", i)
		}
	}

	hrec, hbody := get(t, s, "/healthz")
	var health wire.Healthz
	if err := json.Unmarshal(hbody, &health); err != nil || hrec.Code != http.StatusOK {
		t.Fatalf("healthz (%d): %v (%s)", hrec.Code, err, hbody)
	}
	if health.Status != "ok" {
		t.Fatalf("healthz status %q after query faults, want ok", health.Status)
	}

	wantExactAfterFaults(t, s, url, clean)
}

// TestBreakerInjectedPanicCounts: a KindPanic injection at the handler is
// recovered into a typed 500 of kind "internal", and a query cut short by
// its budget= parameter comes back as a 200 truncated prefix of the clean
// answer; neither opens anything — the process never dies and the next
// query is exact.
func TestBreakerInjectedPanicCounts(t *testing.T) {
	defer leaktest.Check(t)()
	const url = "/query?source=0&category=hotel&k=2"

	s, _ := testServer(t)
	clean := cleanAnswer(t, s, url)
	installFaults(t, fault.New().Add(
		fault.Rule{Point: fault.ServerHandler, Nth: 1, Count: 1, Kind: fault.KindPanic}))
	rec, body := get(t, s, url)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("handler panic: status %d, want 500 (%s)", rec.Code, body)
	}
	if kind := rec.Header().Get(wire.HeaderErrorKind); kind != string(wire.KindInternal) {
		t.Fatalf("handler panic: error kind %q, want %q", kind, wire.KindInternal)
	}
	wantExactAfterFaults(t, s, url, clean)

	// Budget 20 lies inside the window (14..33 units on this grid) in
	// which the first path is out and the second is not.
	rec, body = get(t, s, url+"&budget=20")
	var out QueryResponse
	if rec.Code != http.StatusOK || json.Unmarshal(body, &out) != nil || !out.Truncated {
		t.Fatalf("budget: status %d truncated=%v, want a 200 truncated prefix (%s)",
			rec.Code, out.Truncated, body)
	}
	if len(out.Paths) >= len(clean.Paths) || !reflect.DeepEqual(out.Paths, clean.Paths[:len(out.Paths)]) {
		t.Fatalf("budget: paths %v are not a proper prefix of %v", out.Paths, clean.Paths)
	}
	wantExactAfterFaults(t, s, url, clean)
}

// writeReloadFile builds a fresh index over g (other landmarks than
// testServer's) and writes both as the flat file a reload targets.
func writeReloadFile(t *testing.T, g *kpj.Graph) string {
	t.Helper()
	ix, err := kpj.BuildIndex(g, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "city.kpjflat")
	if err := kpj.WriteFlatFile(path, g, ix); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReloadIndexFaulted is the hot-reload acceptance check: a reload
// that reads a byte-flipped copy of the file must leave the old index
// serving, and a reload of the rewritten good file must succeed.
func TestReloadIndexFaulted(t *testing.T) {
	defer leaktest.Check(t)()
	s, g := testServer(t)
	old := s.index()
	if old == nil {
		t.Fatal("testServer should serve an index")
	}
	path := writeReloadFile(t, g)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadIndex(path); !errors.Is(err, flatindex.ErrChecksum) {
		t.Fatalf("reload of a byte-flipped file: err = %v, want flatindex.ErrChecksum", err)
	}
	if s.index() != old {
		t.Fatal("failed reload replaced the serving index")
	}
	// The old index still serves queries.
	if rec, body := get(t, s, "/query?source=0&category=hotel&k=3"); rec.Code != http.StatusOK {
		t.Fatalf("query after failed reload: status %d (%s)", rec.Code, body)
	}

	// The good file is back: the same reload now succeeds and swaps.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadIndex(path); err != nil {
		t.Fatalf("clean reload: %v", err)
	}
	if s.index() == old {
		t.Fatal("clean reload did not swap the index")
	}
	if rec, body := get(t, s, "/query?source=0&category=hotel&k=3"); rec.Code != http.StatusOK {
		t.Fatalf("query after clean reload: status %d (%s)", rec.Code, body)
	}
}

// TestReloadIndexBadFile: reloads from a missing, corrupt or index-less
// file keep the old index without needing fault injection.
func TestReloadIndexBadFile(t *testing.T) {
	s, g := testServer(t)
	old := s.index()
	if err := s.ReloadIndex(filepath.Join(t.TempDir(), "nope.kpjflat")); err == nil {
		t.Fatal("reload from a missing file should fail")
	}
	garbage := filepath.Join(t.TempDir(), "garbage.kpjflat")
	if err := os.WriteFile(garbage, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadIndex(garbage); err == nil {
		t.Fatal("reload from a corrupt file should fail")
	}
	bare := filepath.Join(t.TempDir(), "bare.kpjflat")
	if err := kpj.WriteFlatFile(bare, g, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadIndex(bare); err == nil {
		t.Fatal("reload from a file without an index should fail")
	}
	if s.index() != old {
		t.Fatal("failed reloads must keep the old index")
	}
	if rec, _ := get(t, s, "/query?source=0&category=hotel&k=2"); rec.Code != http.StatusOK {
		t.Fatalf("query after failed reloads: status %d", rec.Code)
	}
}

// TestReloadRefusesFileOfDifferentGraph: the flat file carries its graph,
// and a reload compares it with the serving graph edge for edge. A
// weight-sum-conserving update leaves node count, edge count and total
// weight — all a three-word summary would see — unchanged, yet the
// pre-update file's tables are no longer lower bounds: the reload must
// be refused with the epoch and fingerprint unmoved. Undoing the update
// makes the same file describe the serving graph again, and it loads.
func TestReloadRefusesFileOfDifferentGraph(t *testing.T) {
	s, g := testServer(t, WithLogf(t.Logf))
	path := writeReloadFile(t, g)

	if rec, body := postUpdate(t, s, `{"setWeights":[{"u":0,"v":1,"w":4},{"u":1,"v":0,"w":16}]}`); rec.Code != http.StatusOK {
		t.Fatalf("update: %d %s", rec.Code, body)
	}
	old, fp := s.index(), fingerprint(s.snapshot())
	if err := s.ReloadIndex(path); !errors.Is(err, kpj.ErrGraphMismatch) {
		t.Fatalf("reload of the pre-update file: err = %v, want ErrGraphMismatch", err)
	}
	if e := healthzEpoch(t, s); e != 1 || fingerprint(s.snapshot()) != fp || s.index() != old {
		t.Fatalf("refused reload moved the epoch: epoch %d fingerprint %s, want 1 %s", e, fingerprint(s.snapshot()), fp)
	}

	// Categories are not compared: the serving graph gains a hotel the
	// file does not know, and the file still loads.
	if rec, body := postUpdate(t, s, `{"setWeights":[{"u":0,"v":1,"w":10},{"u":1,"v":0,"w":10}],"addPOIs":[{"category":"hotel","node":7}]}`); rec.Code != http.StatusOK {
		t.Fatalf("undo update: %d %s", rec.Code, body)
	}
	if err := s.ReloadIndex(path); err != nil {
		t.Fatalf("reload once the graph matches again: %v", err)
	}
	if e := healthzEpoch(t, s); e != 3 || fingerprint(s.snapshot()) == fp {
		t.Fatalf("accepted reload: epoch %d fingerprint %s, want epoch 3 and the file's index", e, fingerprint(s.snapshot()))
	}
	// The swapped-in index is bound to the serving graph, not the file's:
	// the next update builds on the serving categories.
	if rec, body := postUpdate(t, s, `{"setWeights":[{"u":0,"v":1,"w":7}]}`); rec.Code != http.StatusOK {
		t.Fatalf("update after reload: %d %s", rec.Code, body)
	}
	if hotels, err := s.snapshot().g.Category("hotel"); err != nil || len(hotels) != 3 {
		t.Fatalf("hotels after reload + update = %v (%v), want the serving graph's three", hotels, err)
	}
}
