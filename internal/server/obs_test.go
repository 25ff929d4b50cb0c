package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"kpj"
)

// TestMetricsEndpoint: with WithMetrics the server exposes /metrics in
// Prometheus text format and /debug/vars as JSON, and serving queries
// moves the request counters and the engine counters.
func TestMetricsEndpoint(t *testing.T) {
	reg := kpj.NewMetricsRegistry()
	kpj.EnableMetrics(reg)
	defer kpj.EnableMetrics(nil)
	s, _ := testServer(t, WithMetrics(reg))

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}

	// Two good queries, one bad one.
	for _, p := range []string{
		"/query?source=0&target=35&k=3",
		"/query?sourceCategory=start&category=hotel&k=2",
		"/query?source=0", // missing target: 400
	} {
		get(p)
	}

	w := get("/metrics")
	if w.Code != 200 {
		t.Fatalf("GET /metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE kpj_http_requests_total counter",
		`kpj_http_requests_total{route="query"} 3`,
		`kpj_http_errors_total{route="query"} 1`,
		"# TYPE kpj_http_request_micros histogram",
		"kpj_http_request_micros_count 3",
		"kpj_engine_queries_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	w = get("/debug/vars")
	if w.Code != 200 {
		t.Fatalf("GET /debug/vars: %d", w.Code)
	}
	var vars map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &vars); err != nil {
		t.Fatalf("vars not JSON: %v", err)
	}
	if v, ok := vars[`kpj_http_requests_total{route="query"}`]; !ok || v.(float64) != 3 {
		t.Fatalf("vars request counter = %v (ok=%v)", v, ok)
	}
	if _, ok := vars["kpj_engine_heap_pops_total"]; !ok {
		t.Fatalf("vars missing engine counters: %v", vars)
	}
}

// TestMetricsOffByDefault: without WithMetrics the endpoints are absent
// and queries still work (the nil instrument path).
func TestMetricsOffByDefault(t *testing.T) {
	s, _ := testServer(t)
	for path, want := range map[string]int{
		"/query?source=0&target=35": 200,
		"/metrics":                  404,
		"/debug/vars":               404,
		"/debug/pprof/":             404,
	} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != want {
			t.Errorf("GET %s = %d, want %d", path, w.Code, want)
		}
	}
}

// TestPprofEndpoint: WithPprof exposes the pprof index.
func TestPprofEndpoint(t *testing.T) {
	s, _ := testServer(t, WithPprof())
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if w.Code != 200 {
		t.Fatalf("GET /debug/pprof/: %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "goroutine") {
		t.Fatalf("pprof index body: %q", w.Body.String())
	}
}

// TestQuerySpans: spans=1 returns the query's phase timeline, and the
// result paths are identical with and without it.
func TestQuerySpans(t *testing.T) {
	s, _ := testServer(t)

	run := func(path string) QueryResponse {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != 200 {
			t.Fatalf("GET %s: %d %s", path, w.Code, w.Body.String())
		}
		var resp QueryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response: %v", err)
		}
		return resp
	}

	plain := run("/query?source=0&category=hotel&k=4")
	spanned := run("/query?source=0&category=hotel&k=4&spans=1")

	if plain.Spans != nil {
		t.Fatalf("spans present without spans=1: %s", plain.Spans)
	}
	if spanned.Spans == nil {
		t.Fatal("spans=1 returned no spans")
	}
	var tl struct {
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
		Dropped int64 `json:"dropped"`
	}
	if err := json.Unmarshal(spanned.Spans, &tl); err != nil {
		t.Fatalf("spans not JSON: %v\n%s", err, spanned.Spans)
	}
	if len(tl.Spans) == 0 {
		t.Fatal("empty span timeline")
	}
	names := map[string]bool{}
	for _, sp := range tl.Spans {
		names[sp.Name] = true
	}
	if !names["initial_path"] {
		t.Fatalf("timeline missing initial_path: %v", names)
	}

	if len(plain.Paths) != len(spanned.Paths) {
		t.Fatalf("spans changed result: %d vs %d paths", len(plain.Paths), len(spanned.Paths))
	}
	for i := range plain.Paths {
		if plain.Paths[i].Length != spanned.Paths[i].Length {
			t.Fatalf("path %d length differs with spans=1", i)
		}
	}

	// spt_build's Val is the nodes the build settled: all of the tree's
	// SPTNodes for the trees that never grow again (SPT_P, DA-SPT's full
	// tree), SPT_I's phase one only.
	for _, alg := range []string{"IterBoundP", "DA-SPT", "IterBoundI"} {
		resp := run("/query?source=0&category=hotel&k=4&spans=1&stats=1&alg=" + alg)
		var tl struct {
			Spans []struct {
				Name string `json:"name"`
				Val  int64  `json:"val"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(resp.Spans, &tl); err != nil {
			t.Fatalf("%s: spans not JSON: %v", alg, err)
		}
		val := int64(-1)
		for _, sp := range tl.Spans {
			if sp.Name == "spt_build" {
				val = sp.Val
			}
		}
		settled := resp.Stats.SPTNodes
		if val <= 0 || val > settled || (alg != "IterBoundI" && val != settled) {
			t.Errorf("%s: spt_build val = %d, Stats.SPTNodes = %d", alg, val, settled)
		}
	}
}

// TestShedCounter: shed requests move kpj_http_shed_total.
func TestShedCounter(t *testing.T) {
	reg := kpj.NewMetricsRegistry()
	s, _ := testServer(t, WithMetrics(reg), WithMaxInFlight(1))
	// Saturate the semaphore by hand, then observe a shed.
	s.inflight <- struct{}{}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/query?source=0&target=35", nil))
	<-s.inflight
	if w.Code != 503 {
		t.Fatalf("saturated query: %d", w.Code)
	}
	mw := httptest.NewRecorder()
	s.ServeHTTP(mw, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(mw.Body.String(), "kpj_http_shed_total 1") {
		t.Fatalf("/metrics missing shed count:\n%s", mw.Body.String())
	}
}
