package router

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"kpj/internal/leaktest"
)

// TestCloseLeavesNoGoroutines covers the plain lifecycle: New starts one
// probe loop per replica, Close must reap every one of them plus the
// transport's idle connections.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	defer leaktest.Check(t)()
	fixtures := newFixtures(t, 3, nil)
	rt := newTestRouter(t, fixtures, nil)
	waitReady(t, rt)
	for i := 0; i < 3; i++ {
		routerGet(t, rt, "/query?source=0&category=hotel&k=2")
	}
	rt.Close()
	for _, f := range fixtures {
		f.srv.Close()
	}
}

// TestMidHedgeCancellationLeavesNoGoroutines forces a hedge on every
// request by stalling the primary, then closes the router with the
// losing attempt still in flight: the attempt goroutine must drain into
// the buffered result channel and exit, not block forever.
func TestMidHedgeCancellationLeavesNoGoroutines(t *testing.T) {
	defer leaktest.Check(t)()
	var stallName string
	var mu sync.Mutex
	mutate := func(i int, h http.Handler) http.Handler {
		name := fmt.Sprintf("r%d", i)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			stalled := r.URL.Path == "/query" && name == stallName
			mu.Unlock()
			if stalled {
				// Park until the router cancels the attempt; a handler
				// that ignores its context would itself leak.
				select {
				case <-r.Context().Done():
					return
				case <-time.After(10 * time.Second):
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	fixtures := newFixtures(t, 2, mutate)
	rt := newTestRouter(t, fixtures, func(c *Config) {
		c.HedgeAfter = 5 * time.Millisecond
	})
	waitReady(t, rt)
	waitAllHealthy(t, rt, fixtures)

	for i := 0; i < 3; i++ {
		// Stall only the replica this query tries first, so the hedge
		// (the other replica) wins every time.
		mu.Lock()
		stallName = nextPrimary(rt)
		mu.Unlock()
		rec, body := routerGet(t, rt, "/query?source=0&category=hotel&k=2")
		if rec.Code != http.StatusOK {
			t.Fatalf("hedged query %d: status %d (%s)", i, rec.Code, body)
		}
		if rep := rec.Header().Get("X-Kpj-Replica"); rep == stallName {
			t.Fatalf("hedged query %d: stalled primary %s won", i, rep)
		}
	}
	// Close while the last loser may still be parked on its stalled
	// upstream request.
	rt.Close()
	for _, f := range fixtures {
		f.srv.Close()
	}
}
