package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kpj/internal/leaktest"
)

// Readiness and draining: /readyz is the router-facing signal ("should
// this replica receive traffic"), distinct from /healthz liveness, and
// StartDraining flips it off ahead of graceful shutdown.

func TestReadyzReportsReadyWithFingerprint(t *testing.T) {
	defer leaktest.Check(t)()
	s, _ := testServer(t)
	rec, body := get(t, s, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d (%s)", rec.Code, body)
	}
	var out struct {
		Ready       bool   `json:"ready"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Ready || len(out.Fingerprint) != 16 {
		t.Fatalf("readyz = %+v, want ready with a 16-hex fingerprint", out)
	}
}

func TestReadyzWithoutIndexIsStillReady(t *testing.T) {
	// A server deliberately started index-less is fully functional (it
	// just computes bounds on the fly), so it must report ready.
	defer leaktest.Check(t)()
	_, g := testServer(t)
	noIx := New(g, nil)
	rec, body := get(t, noIx, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("index-less readyz: status %d (%s)", rec.Code, body)
	}
}

func TestStartDrainingFlipsReadyzAndShedsQueries(t *testing.T) {
	defer leaktest.Check(t)()
	s, _ := testServer(t)
	if s.draining.Load() {
		t.Fatal("fresh server reports draining")
	}

	s.StartDraining()
	s.StartDraining() // idempotent
	if !s.draining.Load() {
		t.Fatal("draining false after StartDraining")
	}

	// /readyz: 503 with the reason and a Retry-After hint.
	rec, body := get(t, s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: status %d (%s)", rec.Code, body)
	}
	var out struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Ready || out.Reason != "draining" {
		t.Fatalf("draining readyz body = %+v", out)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("draining readyz missing Retry-After")
	}

	// New queries and batches are shed with 503 + Retry-After.
	queryReq := httptest.NewRequest(http.MethodGet, "/query?source=0&category=hotel&k=2", nil)
	batchReq := httptest.NewRequest(http.MethodPost, "/batch",
		strings.NewReader(`[{"sources":[0],"category":"hotel","k":2}]`))
	for _, req := range []*http.Request{queryReq, batchReq} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s while draining: status %d (%s)", req.URL.Path, rec.Code, rec.Body.Bytes())
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s while draining: missing Retry-After", req.URL.Path)
		}
	}

	// Liveness keeps answering 200 (the process is up, just not taking
	// traffic) and reports the drain so operators can see it.
	rec, body = get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("draining healthz: status %d (%s)", rec.Code, body)
	}
	var health map[string]any
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health["draining"] != true {
		t.Fatalf("draining healthz = %v, want draining:true", health)
	}
	// /categories (introspection, not query execution) also stays up.
	if rec, _ := get(t, s, "/categories"); rec.Code != http.StatusOK {
		t.Fatalf("draining categories: status %d", rec.Code)
	}
}
