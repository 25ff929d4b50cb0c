package router

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kpj/internal/server"
	"kpj/internal/wire"
)

// The door contract: one table of malformed requests, each sent straight
// to a replica and through a router in front of it. Both doors must give
// the same status and kind, in the body and in X-Kpj-Error-Kind, as JSON.

type doorRow struct {
	method, path, body string
	header             map[string]string
	status             int
	kind               wire.Kind
	// replicaOnly marks endpoints the router does not serve (it calls
	// /resync itself, it never exposes it).
	replicaOnly bool
}

func doorRows() []doorRow {
	oversized := "[" + strings.Repeat(" ", wire.MaxBodyBytes) + "]"
	var rows []doorRow
	for _, url := range []string{
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
		"/query?source=9999&category=hotel",                   // out-of-range source
	} {
		rows = append(rows, doorRow{method: http.MethodGet, path: url, status: http.StatusBadRequest, kind: wire.KindBadRequest})
	}
	post := func(path, body string, status int, kind wire.Kind) doorRow {
		return doorRow{method: http.MethodPost, path: path, body: body, status: status, kind: kind}
	}
	mismatched := post("/update", `{"setWeights":[{"u":0,"v":1,"w":4}]}`, http.StatusConflict, wire.KindEpochConflict)
	mismatched.header = map[string]string{wire.HeaderExpectEpoch: "7"}
	resync := post("/resync", "x", http.StatusBadRequest, wire.KindBadRequest)
	resync.replicaOnly = true
	return append(rows,
		post("/batch", "{bad", http.StatusBadRequest, wire.KindBadRequest),
		post("/batch", oversized, http.StatusRequestEntityTooLarge, wire.KindTooLarge),
		post("/update", "", http.StatusBadRequest, wire.KindBadRequest),
		post("/update", "{bad", http.StatusBadRequest, wire.KindBadRequest),
		post("/update", oversized, http.StatusRequestEntityTooLarge, wire.KindTooLarge),
		mismatched,
		resync,
	)
}

func TestDoorContract(t *testing.T) {
	fixtures := newFixtures(t, 1, nil, server.WithMaxK(10), server.WithLogf(t.Logf))
	rt := newTestRouter(t, fixtures, nil)
	waitReady(t, rt)
	doors := []struct {
		name string
		h    http.Handler
	}{{"replica", fixtures[0].app}, {"router", rt}}
	for _, row := range doorRows() {
		for _, door := range doors {
			if row.replicaOnly && door.name == "router" {
				continue
			}
			req := httptest.NewRequest(row.method, row.path, strings.NewReader(row.body))
			for k, v := range row.header {
				req.Header.Set(k, v)
			}
			rec := httptest.NewRecorder()
			door.h.ServeHTTP(rec, req)
			var eb wire.ErrorBody
			_ = json.Unmarshal(rec.Body.Bytes(), &eb)
			if rec.Code != row.status || eb.Kind != row.kind ||
				rec.Header().Get(wire.HeaderErrorKind) != string(row.kind) ||
				rec.Header().Get("Content-Type") != "application/json" {
				t.Errorf("%s %s %.40s: status %d kind %q header kind %q type %q, want %d %q as JSON (%.200s)",
					door.name, row.method, row.path, rec.Code, eb.Kind, rec.Header().Get(wire.HeaderErrorKind),
					rec.Header().Get("Content-Type"), row.status, row.kind, rec.Body.String())
			}
		}
	}
	if got := fixtures[0].app.Epoch(); got != 0 {
		t.Fatalf("rejected requests moved the replica to epoch %d", got)
	}
}
