package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentQueries drives many simultaneous /query requests on one
// server — sharing its epoch, graph, index and workspace pool — and
// checks every response against the single-threaded answer. Run with
// -race.
func TestConcurrentQueries(t *testing.T) {
	s, _ := testServer(t)

	urls := []string{
		"/query?source=0&category=hotel&k=6",
		"/query?source=3&category=hotel&k=6",
		"/query?sourceCategory=start&category=hotel&k=6",
		"/query?source=0&target=35&k=6",
	}
	want := make([]QueryResponse, len(urls))
	for i, u := range urls {
		rec, body := get(t, s, u)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", u, rec.Code, body)
		}
		if err := json.Unmarshal(body, &want[i]); err != nil {
			t.Fatalf("%s: %v", u, err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				i := (w + r) % len(urls)
				req := httptest.NewRequest(http.MethodGet, urls[i], nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("worker %d: %s: status %d", w, urls[i], rec.Code)
					return
				}
				var got QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					errs <- fmt.Errorf("worker %d: %s: %v", w, urls[i], err)
					return
				}
				if !reflect.DeepEqual(got.Paths, want[i].Paths) {
					errs <- fmt.Errorf("worker %d: %s: paths differ from single-threaded answer", w, urls[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
