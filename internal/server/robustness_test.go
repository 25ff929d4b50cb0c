package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kpj"
	"kpj/internal/leaktest"
)

// slowServer serves a 100×100 grid whose corner-to-corner top-k queries
// take far longer than the millisecond-scale deadlines used below, so
// timeout/budget truncation reliably triggers. No index: the point is the
// serving layer, not query speed.
func slowServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	const w, h = 100, 100
	b := kpj.NewBuilder(w * h)
	id := func(x, y int) kpj.NodeID { return kpj.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddBiEdge(id(x, y), id(x+1, y), kpj.Weight(1+(x+y)%3))
			}
			if y+1 < h {
				b.AddBiEdge(id(x, y), id(x, y+1), kpj.Weight(1+(x*y)%3))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddCategory("far", []kpj.NodeID{id(w-1, h-1)}); err != nil {
		t.Fatal(err)
	}
	return New(g, nil, append([]Option{WithMaxK(10000)}, opts...)...)
}

func TestQueryTimeoutReturnsTruncated(t *testing.T) {
	defer leaktest.Check(t)()
	const timeout = 5 * time.Millisecond
	s := slowServer(t, WithTimeout(timeout))
	start := time.Now()
	rec, body := get(t, s, "/query?source=0&category=far&k=5000")
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Truncated {
		t.Fatalf("5ms deadline on a slow query: truncated=false after %v (%d paths)", elapsed, len(out.Paths))
	}
	if out.TimeoutMicros != timeout.Microseconds() {
		t.Fatalf("timeoutMicros = %d, want %d", out.TimeoutMicros, timeout.Microseconds())
	}
	if elapsed > time.Second {
		t.Fatalf("deadline-bounded query took %v", elapsed)
	}

	// /batch runs under the same deadline: every item comes back truncated
	// or canceled, never finished late.
	start = time.Now()
	brec := httptest.NewRecorder()
	s.ServeHTTP(brec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(
		`[{"sources":[0],"category":"far","k":5000},{"sources":[17],"category":"far","k":5000}]`)))
	elapsed = time.Since(start)
	if brec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", brec.Code, brec.Body)
	}
	var items []BatchResponseItem
	if err := json.Unmarshal(brec.Body.Bytes(), &items); err != nil || len(items) != 2 {
		t.Fatalf("batch body %s (err %v)", brec.Body, err)
	}
	for i, it := range items {
		if !it.Truncated && !strings.Contains(it.Error, "canceled") {
			t.Fatalf("batch item %d under a 5ms deadline: truncated=false error=%q (%d paths)", i, it.Error, len(it.Paths))
		}
	}
	if elapsed > time.Second {
		t.Fatalf("deadline-bounded batch took %v", elapsed)
	}
}

func TestQueryBudgetParamTruncates(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s, "/query?source=0&category=hotel&k=3&budget=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Truncated {
		t.Fatalf("budget=2 did not truncate: %d paths", len(out.Paths))
	}
	// Without the budget the same query completes untruncated.
	rec, body = get(t, s, "/query?source=0&category=hotel&k=3")
	out = QueryResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || out.Truncated || len(out.Paths) != 3 {
		t.Fatalf("unbudgeted query: status %d truncated %v paths %d", rec.Code, out.Truncated, len(out.Paths))
	}
}

func TestServerWideBudgetOption(t *testing.T) {
	s, _ := testServer(t, WithBudget(2))
	rec, body := get(t, s, "/query?source=0&category=hotel&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Truncated {
		t.Fatal("WithBudget(2) did not truncate the query")
	}
}

// TestInFlightLimiter: with the single slot occupied, /query and /batch
// are shed with 503 + Retry-After; once the slot frees, queries succeed.
func TestInFlightLimiter(t *testing.T) {
	defer leaktest.Check(t)()
	s, _ := testServer(t, WithMaxInFlight(1))
	s.inflight <- struct{}{} // occupy the only slot

	rec, body := get(t, s, "/query?source=0&category=hotel&k=1")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated /query: status %d, want 503 (%s)", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After")
	}
	req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(`[{"sources":[0],"category":"hotel","k":1}]`))
	brec := httptest.NewRecorder()
	s.ServeHTTP(brec, req)
	if brec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated /batch: status %d, want 503", brec.Code)
	}
	// Non-query endpoints are never shed.
	if rec, _ := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("saturated /healthz: status %d", rec.Code)
	}

	<-s.inflight // free the slot
	rec, body = get(t, s, "/query?source=0&category=hotel&k=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("after drain: status %d (%s)", rec.Code, body)
	}
}

// TestPanicRecovery: a panicking handler becomes a logged 500 and the
// server keeps serving.
func TestPanicRecovery(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	s, _ := testServer(t, WithLogf(func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}))
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rec, _ := get(t, s, "/boom")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	mu.Lock()
	n := len(logged)
	hasPanic := n > 0 && strings.Contains(logged[0], "kaboom")
	mu.Unlock()
	if !hasPanic {
		t.Fatalf("panic not logged (%d entries)", n)
	}
	// The process survived; subsequent requests work.
	if rec, body := get(t, s, "/query?source=0&category=hotel&k=1"); rec.Code != http.StatusOK {
		t.Fatalf("after panic: status %d (%s)", rec.Code, body)
	}
}

// TestShutdownUnderLoad hammers /query and /batch over real connections
// and shuts the server down mid-flight. Run with -race: the assertion is
// the absence of data races and panics, plus prompt termination — the
// per-request contexts end when connections drop, so no query outlives
// the server.
func TestShutdownUnderLoad(t *testing.T) {
	defer leaktest.Check(t)()
	s := slowServer(t, WithTimeout(10*time.Millisecond), WithMaxInFlight(8))
	ts := httptest.NewServer(s)
	client := ts.Client()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	hammer := func(do func() error) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := do(); err != nil {
				return // server gone: expected once Close lands
			}
		}
	}
	drain := func(resp *http.Response, err error) error {
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	}
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go hammer(func() error {
			return drain(client.Get(ts.URL + "/query?source=0&category=far&k=500"))
		})
		go hammer(func() error {
			return drain(client.Post(ts.URL+"/batch", "application/json",
				strings.NewReader(`[{"sources":[0],"category":"far","k":200},{"sources":[17],"category":"far","k":200}]`)))
		})
	}

	time.Sleep(30 * time.Millisecond) // let requests pile in-flight
	done := make(chan struct{})
	go func() {
		ts.Close() // closes the listener and waits for outstanding requests
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server shutdown hung with requests in flight")
	}
	close(stop)
	wg.Wait()
}
