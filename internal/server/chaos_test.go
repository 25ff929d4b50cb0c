package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kpj"
	"kpj/internal/fault"
	"kpj/internal/leaktest"
)

// Server-side chaos tests: injected faults at the server.handler and
// index.load points must degrade service (breaker, old-index retention),
// never corrupt it.

func installFaults(t *testing.T, r *fault.Registry) {
	t.Helper()
	fault.Install(r)
	t.Cleanup(func() { fault.Install(nil) })
}

// TestBreakerDegradedMode walks the full breaker lifecycle under an
// injected two-request fault window with WithBreaker(2, 2):
//
//	req 1: fault at full power, breaker still closed        -> 500
//	req 2: fault trips the breaker, retried once degraded   -> 200 degraded
//	req 3: breaker open, runs degraded, clean (probe 2/2)   -> 200 degraded, closes
//	req 4: breaker closed again                             -> 200 normal
func TestBreakerDegradedMode(t *testing.T) {
	defer leaktest.Check(t)()
	s, _ := testServer(t, WithBreaker(2, 2))
	installFaults(t, fault.New().Add(
		fault.Rule{Point: fault.ServerHandler, Nth: 1, Count: 2}))

	const url = "/query?source=0&category=hotel&k=3"

	rec, body := get(t, s, url)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("req 1: status %d, want 500 (%s)", rec.Code, body)
	}

	rec, body = get(t, s, url)
	if rec.Code != http.StatusOK {
		t.Fatalf("req 2 (trip + degraded retry): status %d (%s)", rec.Code, body)
	}
	if rec.Header().Get("X-Kpj-Degraded") != "1" {
		t.Fatal("req 2: missing X-Kpj-Degraded header on degraded retry")
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || len(out.Paths) != 3 {
		t.Fatalf("req 2: degraded=%v paths=%d, want degraded with 3 paths", out.Degraded, len(out.Paths))
	}

	// While open, /healthz reports the default algorithm's breaker open.
	hrec, hbody := get(t, s, "/healthz")
	var health struct {
		Breakers map[string]string `json:"breakers"`
	}
	if err := json.Unmarshal(hbody, &health); err != nil {
		t.Fatalf("healthz (%d): %v", hrec.Code, err)
	}
	if health.Breakers["IterBoundI"] != "open" {
		t.Fatalf("healthz breakers = %v, want IterBoundI open", health.Breakers)
	}

	rec, body = get(t, s, url)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Kpj-Degraded") != "1" {
		t.Fatalf("req 3: status %d degraded=%q (%s)", rec.Code, rec.Header().Get("X-Kpj-Degraded"), body)
	}

	rec, body = get(t, s, url)
	if rec.Code != http.StatusOK {
		t.Fatalf("req 4: status %d (%s)", rec.Code, body)
	}
	if rec.Header().Get("X-Kpj-Degraded") != "" {
		t.Fatal("req 4: breaker should have closed after two clean probes")
	}
	if _, hbody = get(t, s, "/healthz"); json.Unmarshal(hbody, &health) != nil ||
		health.Breakers["IterBoundI"] != "closed" {
		t.Fatalf("healthz after recovery: %v", health.Breakers)
	}
}

// TestBreakerInjectedPanicCounts: a KindPanic injection at the handler is
// recovered into ErrWorkerPanic, and a mid-engine injected error comes
// back as a truncated prefix wrapping ErrInjectedFault; both count toward
// the breaker like any other internal fault — the process never dies.
func TestBreakerInjectedPanicCounts(t *testing.T) {
	defer leaktest.Check(t)()
	for _, rule := range []fault.Rule{
		{Point: fault.ServerHandler, Nth: 1, Count: 1, Kind: fault.KindPanic},
		{Point: fault.SubspaceSearch, Nth: 1, Count: 1},
	} {
		s, _ := testServer(t, WithBreaker(1, 1))
		installFaults(t, fault.New().Add(rule))

		// The fault trips the one-strike breaker; the degraded retry succeeds.
		rec, body := get(t, s, "/query?source=0&category=hotel&k=2")
		if rec.Code != http.StatusOK || rec.Header().Get("X-Kpj-Degraded") != "1" {
			t.Fatalf("%s: status %d degraded=%q (%s)", rule.Point, rec.Code, rec.Header().Get("X-Kpj-Degraded"), body)
		}
		// One clean degraded probe closes it again.
		rec, _ = get(t, s, "/query?source=0&category=hotel&k=2")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: probe: status %d", rule.Point, rec.Code)
		}
		if rec, _ := get(t, s, "/query?source=0&category=hotel&k=2"); rec.Header().Get("X-Kpj-Degraded") != "" {
			t.Fatalf("%s: breaker should be closed after the clean probe", rule.Point)
		}
	}
}

// TestBreakerIgnoresTruncation: deadline truncation is the bound working
// as designed and must never open the breaker.
func TestBreakerIgnoresTruncation(t *testing.T) {
	defer leaktest.Check(t)()
	s := slowServer(t, WithTimeout(2*time.Millisecond), WithBreaker(1, 1))
	for i := 0; i < 3; i++ {
		rec, body := get(t, s, "/query?source=0&category=far&k=5000")
		if rec.Code != http.StatusOK {
			t.Fatalf("truncated query %d: status %d (%s)", i, rec.Code, body)
		}
		var out QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Truncated {
			t.Skipf("query %d finished under the deadline; timing too fast to assert", i)
		}
		if out.Degraded || rec.Header().Get("X-Kpj-Degraded") != "" {
			t.Fatalf("truncation opened the one-strike breaker on query %d", i)
		}
	}
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

// TestReloadIndexFaulted is the hot-reload acceptance check: an injected
// index.load fault during reload must leave the old index serving, and a
// subsequent clean reload must succeed.
func TestReloadIndexFaulted(t *testing.T) {
	defer leaktest.Check(t)()
	s, g := testServer(t)
	old := s.index()
	if old == nil {
		t.Fatal("testServer should serve an index")
	}
	path := writeReloadFile(t, g)

	installFaults(t, fault.New().Add(fault.Rule{Point: fault.IndexLoad, Nth: 1, Count: 1}))
	if err := s.ReloadIndex(path); !errors.Is(err, kpj.ErrInjectedFault) {
		t.Fatalf("reload under injected index.load fault: err = %v, want ErrInjectedFault", err)
	}
	if s.index() != old {
		t.Fatal("failed reload replaced the serving index")
	}
	// The old index still serves queries.
	if rec, body := get(t, s, "/query?source=0&category=hotel&k=3"); rec.Code != http.StatusOK {
		t.Fatalf("query after failed reload: status %d (%s)", rec.Code, body)
	}

	// The fault window has passed: the same reload now succeeds and swaps.
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
