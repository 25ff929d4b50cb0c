package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kpj"
)

func testServer(t testing.TB, opts ...Option) (*Server, *kpj.Graph) {
	t.Helper()
	// A 6×6 grid city with two categories.
	const w, h = 6, 6
	b := kpj.NewBuilder(w * h)
	id := func(x, y int) kpj.NodeID { return kpj.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddBiEdge(id(x, y), id(x+1, y), 10)
			}
			if y+1 < h {
				b.AddBiEdge(id(x, y), id(x, y+1), 10)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddCategory("hotel", []kpj.NodeID{id(5, 5), id(2, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddCategory("start", []kpj.NodeID{id(0, 0), id(5, 0)}); err != nil {
		t.Fatal(err)
	}
	ix, err := kpj.BuildIndex(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return New(g, ix, opts...), g
}

func get(t *testing.T, s *Server, url string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestHealthz(t *testing.T) {
	s, g := testServer(t)
	rec, body := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" || int(out["nodes"].(float64)) != g.NumNodes() || out["indexed"] != true {
		t.Fatalf("healthz = %v", out)
	}
}

func TestCategoriesEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s, "/categories")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var out map[string]int
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out["hotel"] != 2 || out["start"] != 2 {
		t.Fatalf("categories = %v", out)
	}
}

func TestQueryKPJ(t *testing.T) {
	s, g := testServer(t)
	rec, body := get(t, s, "/query?source=0&category=hotel&k=3&stats=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Paths) != 3 {
		t.Fatalf("paths = %v", out.Paths)
	}
	// Nearest hotel from (0,0) is (2,3): manhattan 5 hops × 10.
	if out.Paths[0].Length != 50 {
		t.Fatalf("P1 length = %d, want 50", out.Paths[0].Length)
	}
	if out.Stats == nil || out.Stats.NodesPopped == 0 {
		t.Fatalf("stats missing: %+v", out.Stats)
	}
	// Must agree with the library directly.
	want, err := g.TopKJoin(0, "hotel", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i].Length != out.Paths[i].Length {
			t.Fatalf("server and library disagree at %d", i)
		}
	}
}

func TestQueryKSPAndGKPJ(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s, "/query?source=0&target=35&k=2&alg=BestFirst")
	if rec.Code != http.StatusOK {
		t.Fatalf("KSP status %d: %s", rec.Code, body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Paths) != 2 || out.Paths[0].Length != 100 {
		t.Fatalf("KSP paths = %v", out.Paths)
	}
	rec, body = get(t, s, "/query?sourceCategory=start&category=hotel&k=2&alpha=1.2")
	if rec.Code != http.StatusOK {
		t.Fatalf("GKPJ status %d: %s", rec.Code, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Paths) != 2 {
		t.Fatalf("GKPJ paths = %v", out.Paths)
	}
}

func TestQueryErrorsHTTP(t *testing.T) {
	s, _ := testServer(t, WithMaxK(10))
	cases := []string{
		"/query",          // no source
		"/query?source=0", // no destination
		"/query?source=0&sourceCategory=start&category=hotel", // both sources
		"/query?source=0&category=hotel&target=3",             // both destinations
		"/query?source=x&category=hotel",                      // bad source
		"/query?source=0&target=x",                            // bad target
		"/query?source=0&category=nope",                       // unknown category
		"/query?sourceCategory=nope&category=hotel",           // unknown source category
		"/query?source=0&category=hotel&k=0",                  // bad k
		"/query?source=0&category=hotel&k=11",                 // k over limit
		"/query?source=0&category=hotel&alg=nope",             // unknown algorithm
		"/query?source=0&category=hotel&alpha=0.5",            // bad alpha
	}
	for _, url := range cases {
		rec, body := get(t, s, url)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", url, rec.Code, body)
		}
		var e struct {
			Error string `json:"error"`
			Kind  string `json:"kind"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" || e.Kind != "bad-request" {
			t.Fatalf("%s: error body %q", url, body)
		}
		if kind := rec.Header().Get("X-Kpj-Error-Kind"); kind != e.Kind {
			t.Fatalf("%s: X-Kpj-Error-Kind %q, body kind %q", url, kind, e.Kind)
		}
	}
	// Out-of-range source id parses but fails query validation — still a
	// client error (mapped via errors.Is), not a 500.
	rec, _ := get(t, s, "/query?source=9999&category=hotel")
	if rec.Code != http.StatusBadRequest || rec.Header().Get("X-Kpj-Error-Kind") != "bad-request" {
		t.Fatalf("out-of-range source: status %d kind %q, want 400 bad-request", rec.Code, rec.Header().Get("X-Kpj-Error-Kind"))
	}
}

func TestBatchEndpoint(t *testing.T) {
	s, _ := testServer(t)
	reqBody := `[
		{"sources":[0],"category":"hotel","k":2},
		{"sourceCategory":"start","category":"hotel","k":1},
		{"sources":[0],"targets":[35],"k":2},
		{"sources":[0],"category":"nope"},
		{"sources":[0],"category":"hotel","k":5000}
	]`
	req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(reqBody))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out []batchResponseItem
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("got %d items", len(out))
	}
	if len(out[0].Paths) != 2 || out[0].Error != "" {
		t.Fatalf("item 0 = %+v", out[0])
	}
	if len(out[1].Paths) != 1 {
		t.Fatalf("item 1 = %+v", out[1])
	}
	if len(out[2].Paths) != 2 || out[2].Paths[0].Length != 100 {
		t.Fatalf("item 2 = %+v", out[2])
	}
	if out[3].Error == "" {
		t.Fatal("unknown category must error")
	}
	if out[4].Error == "" {
		t.Fatal("k over limit must error")
	}
}

func TestBatchBadJSON(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestMethodRouting(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/query?source=0&category=hotel", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed && rec.Code != http.StatusNotFound {
		t.Fatalf("POST /query status %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/batch", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed && rec.Code != http.StatusNotFound {
		t.Fatalf("GET /batch status %d", rec.Code)
	}
}

func TestNoIndexServer(t *testing.T) {
	b := kpj.NewBuilder(2).AddBiEdge(0, 1, 7)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddCategory("x", []kpj.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	s := New(g, nil)
	rec, body := get(t, s, "/query?source=0&category=x&k=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Paths) != 1 || out.Paths[0].Length != 7 {
		t.Fatalf("paths = %v", out.Paths)
	}
}
