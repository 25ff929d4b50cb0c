package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"kpj"
	"kpj/internal/leaktest"
	"kpj/internal/wire"
)

func postUpdate(t testing.TB, s *Server, body string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func healthzEpoch(t *testing.T, s *Server) uint64 {
	t.Helper()
	_, body := get(t, s, "/healthz")
	var out struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Epoch
}

func TestUpdatePublishesNewEpoch(t *testing.T) {
	s, _ := testServer(t, WithLogf(t.Logf))
	if got := healthzEpoch(t, s); got != 0 {
		t.Fatalf("initial epoch = %d", got)
	}
	// Best path 0 -> 1 on the grid is the direct 10-weight edge.
	rec, body := get(t, s, "/query?source=0&target=1&k=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, body)
	}
	var q QueryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Epoch != 0 || q.Paths[0].Length != 10 {
		t.Fatalf("pre-update query: epoch %d length %d", q.Epoch, q.Paths[0].Length)
	}

	rec, body = postUpdate(t, s, `{"setWeights":[{"u":0,"v":1,"w":4}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("update: %d %s", rec.Code, body)
	}
	var up UpdateResponse
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	if up.Epoch != 1 || up.Fingerprint == "" {
		t.Fatalf("update response: %+v", up)
	}
	// The new shortcut damages landmark tables; the response carries the
	// repair's work counter next to the table count.
	if up.RepairedTables == 0 || up.RepairSettled == 0 || !strings.Contains(string(body), `"repairSettled":`) {
		t.Fatalf("update response lacks repair accounting: %s", body)
	}
	if got := healthzEpoch(t, s); got != 1 {
		t.Fatalf("healthz epoch after update = %d", got)
	}

	rec, body = get(t, s, "/query?source=0&target=1&k=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, body)
	}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Epoch != 1 || q.Paths[0].Length != 4 {
		t.Fatalf("post-update query: epoch %d length %d", q.Epoch, q.Paths[0].Length)
	}
	if q.Fingerprint != up.Fingerprint {
		t.Fatalf("query fingerprint %s, update said %s", q.Fingerprint, up.Fingerprint)
	}
}

// TestUpdateFullRebuildMeansEveryTableRepaired pins what "fullRebuild"
// reports: that the delta damaged all 2·L landmark tables, not that any
// was recomputed from scratch. Either way the repair settles fewer nodes
// than one full Dijkstra per repaired table would.
func TestUpdateFullRebuildMeansEveryTableRepaired(t *testing.T) {
	s, g := testServer(t, WithLogf(t.Logf))
	tables, n := 2*len(s.snapshot().ix.Landmarks()), g.NumNodes()
	for _, tc := range []struct {
		name, body string
		all        bool
	}{
		// On the uniform grid one endpoint of any edge is nearer each
		// landmark, so a shortcut both ways damages every table.
		{"every table", `{"setWeights":[{"u":14,"v":15,"w":1},{"u":15,"v":14,"w":1}]}`, true},
		{"some tables", `{"setWeights":[{"u":0,"v":1,"w":4}]}`, false},
	} {
		rec, body := postUpdate(t, s, tc.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: update: %d %s", tc.name, rec.Code, body)
		}
		var up UpdateResponse
		if err := json.Unmarshal(body, &up); err != nil {
			t.Fatal(err)
		}
		if tc.all != (up.RepairedTables == tables) || up.RepairedTables == 0 {
			t.Fatalf("%s: %d of %d tables repaired: %s", tc.name, up.RepairedTables, tables, body)
		}
		if up.FullRebuild != tc.all || strings.Contains(string(body), `"fullRebuild"`) != tc.all {
			t.Fatalf("%s: fullRebuild should be reported iff all %d tables were repaired: %s", tc.name, tables, body)
		}
		if up.RepairSettled == 0 || up.RepairSettled >= up.RepairedTables*n {
			t.Fatalf("%s: settled %d nodes over %d tables of %d nodes: %s", tc.name, up.RepairSettled, up.RepairedTables, n, body)
		}
	}
}

func TestUpdateRejectsBadInput(t *testing.T) {
	s, _ := testServer(t, WithLogf(t.Logf))
	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"unknown field", `{"nope":1}`},
		{"empty delta", `{}`},
		{"missing edge", `{"deletes":[{"u":0,"v":5}]}`},
		{"existing edge insert", `{"inserts":[{"u":0,"v":1,"w":3}]}`},
		{"out of range node", `{"setWeights":[{"u":0,"v":9999,"w":3}]}`},
		{"unknown category", `{"removePOIs":[{"category":"nope","node":0}]}`},
	}
	for _, tc := range cases {
		rec, body := postUpdate(t, s, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, rec.Code, body)
		}
	}
	if got := healthzEpoch(t, s); got != 0 {
		t.Fatalf("failed updates moved the epoch to %d", got)
	}
}

func TestUpdateShedsWhileDraining(t *testing.T) {
	s, _ := testServer(t, WithLogf(t.Logf))
	s.StartDraining()
	rec, _ := postUpdate(t, s, `{"setWeights":[{"u":0,"v":1,"w":4}]}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining update: status %d, want 503", rec.Code)
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("draining update moved the epoch to %d", got)
	}
}

// TestUpdateFaultKeepsEpoch fails an update mid-apply: its first op is
// valid, its second reweights a missing edge. The update answers a typed
// 400, the serving epoch is unchanged, and queries keep answering from
// the old generation.
func TestUpdateFaultKeepsEpoch(t *testing.T) {
	defer leaktest.Check(t)()
	s, _ := testServer(t, WithLogf(t.Logf))

	rec, body := postUpdate(t, s, `{"setWeights":[{"u":0,"v":1,"w":4},{"u":0,"v":7,"w":1}]}`)
	if rec.Code != http.StatusBadRequest || rec.Header().Get(wire.HeaderErrorKind) != string(wire.KindBadRequest) {
		t.Fatalf("failed update: %d %s", rec.Code, body)
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("failed apply moved the epoch to %d", got)
	}
	rec, body = get(t, s, "/query?source=0&target=1&k=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("query after failed update: %d %s", rec.Code, body)
	}
	var q QueryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Epoch != 0 || q.Paths[0].Length != 10 {
		t.Fatalf("query after failed update: epoch %d length %d", q.Epoch, q.Paths[0].Length)
	}
	// The valid first op alone lands.
	if rec, body = postUpdate(t, s, `{"setWeights":[{"u":0,"v":1,"w":4}]}`); rec.Code != http.StatusOK {
		t.Fatalf("retry update: %d %s", rec.Code, body)
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("epoch after retry = %d", got)
	}
}

func TestUpdateUnindexedServer(t *testing.T) {
	b := kpj.NewBuilder(3)
	b.AddEdge(0, 1, 5).AddEdge(1, 2, 5).AddEdge(0, 2, 20)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddCategory("poi", []kpj.NodeID{2}); err != nil {
		t.Fatal(err)
	}
	s := New(g, nil, WithLogf(t.Logf))
	rec, body := postUpdate(t, s, `{"setWeights":[{"u":0,"v":2,"w":3}],"addPOIs":[{"category":"poi","node":1}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("update: %d %s", rec.Code, body)
	}
	var up UpdateResponse
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	if up.Epoch != 1 || up.Fingerprint != "" || up.RepairedTables != 0 || strings.Contains(string(body), "repairSettled") {
		t.Fatalf("unindexed update response: %s", body)
	}
	rec, body = get(t, s, "/query?source=0&category=poi&k=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, body)
	}
	var q QueryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Paths[0].Length != 3 {
		t.Fatalf("post-update best = %d, want 3 (new 0->2 weight)", q.Paths[0].Length)
	}
}

// TestUpdateQueryRace races /query traffic against a stream of /update
// epoch bumps (run with -race). The invariant: every response is
// internally consistent — its Epoch field and its path lengths come from
// ONE generation, never a torn mix. Epoch i sets w(0,1) = 10 when i is
// even and 4 when i is odd, so the best 0->1 length is a pure function
// of the epoch a query claims it ran against.
func TestUpdateQueryRace(t *testing.T) {
	defer leaktest.Check(t)()
	s, _ := testServer(t, WithLogf(t.Logf))

	wantLen := func(epoch uint64) kpj.Weight {
		if epoch%2 == 0 {
			return 10
		}
		return 4
	}

	const updates = 24
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := "/query?source=0&target=1&k=1"
				if i%3 == 0 {
					url = "/query?source=0&category=hotel&k=2" // exercise category bound tables across epochs
				}
				req := httptest.NewRequest(http.MethodGet, url, nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("worker %d: status %d: %s", w, rec.Code, rec.Body.String())
					return
				}
				var q QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				if i%3 != 0 && len(q.Paths) > 0 && q.Paths[0].Length != wantLen(q.Epoch) {
					errs <- fmt.Errorf("worker %d: torn read: epoch %d but best 0->1 = %d", w, q.Epoch, q.Paths[0].Length)
					return
				}
			}
		}(w)
	}

	for i := 1; i <= updates; i++ {
		w := 10
		if i%2 == 1 {
			w = 4
		}
		rec, body := postUpdate(t, s, fmt.Sprintf(`{"setWeights":[{"u":0,"v":1,"w":%d},{"u":1,"v":0,"w":%d}]}`, w, w))
		if rec.Code != http.StatusOK {
			t.Fatalf("update %d: %d %s", i, rec.Code, body)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Epoch(); got != updates {
		t.Fatalf("final epoch = %d, want %d", got, updates)
	}
}

// TestUpdateQueryRaceChaos is the race test with some updates failing
// mid-apply: updates 2 and 5 carry a second op that reweights a missing
// edge. Failed updates return 400 and must not advance the epoch;
// successful ones advance it by exactly one; and racing queries stay
// torn-free throughout.
func TestUpdateQueryRaceChaos(t *testing.T) {
	defer leaktest.Check(t)()
	s, _ := testServer(t, WithLogf(t.Logf))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			req := httptest.NewRequest(http.MethodGet, "/query?source=0&target=1&k=1", nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("query status %d", rec.Code)
				return
			}
			var q QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
				errs <- err
				return
			}
			want := kpj.Weight(10)
			if q.Epoch%2 == 1 {
				want = 4
			}
			if len(q.Paths) > 0 && q.Paths[0].Length != want {
				errs <- fmt.Errorf("torn read: epoch %d best %d", q.Epoch, q.Paths[0].Length)
				return
			}
		}
	}()

	okCount := 0
	for i := 1; i <= 8; i++ {
		w := 10
		if s.Epoch()%2 == 0 { // next successful epoch is odd -> 4
			w = 4
		}
		u, v, want := 1, 0, http.StatusOK
		if i == 2 || i == 5 {
			u, v, want = 0, 7, http.StatusBadRequest // (0,7) is no edge
		}
		rec, body := postUpdate(t, s, fmt.Sprintf(`{"setWeights":[{"u":0,"v":1,"w":%d},{"u":%d,"v":%d,"w":%d}]}`, w, u, v, w))
		if rec.Code != want {
			t.Fatalf("update %d: status %d, want %d: %s", i, rec.Code, want, body)
		}
		if rec.Code == http.StatusOK {
			okCount++
		}
		if got := s.Epoch(); got != uint64(okCount) {
			t.Fatalf("after update %d: epoch %d, %d successes", i, got, okCount)
		}
	}
	if okCount != 6 {
		t.Fatalf("%d/8 updates succeeded, want 6", okCount)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
