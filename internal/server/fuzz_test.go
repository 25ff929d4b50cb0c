package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// FuzzParseQuery drives the server's query parsing path with arbitrary
// URL query strings: parsing must never panic, and every accepted query
// must satisfy the invariants the handlers rely on (non-empty node
// sets, 1 ≤ k ≤ maxK, alpha > 1 when set, budget > 0 when set).
func FuzzParseQuery(f *testing.F) {
	s, _ := testServer(f)

	seeds := []string{
		"source=0&target=35",
		"sourceCategory=start&category=hotel&k=3",
		"source=0&category=hotel&alg=BestFirst&alpha=1.5&stats=1",
		"source=-1&target=99999",
		"source=0&target=1&k=0",
		"source=0&target=1&k=9999999",
		"source=0&target=1&alpha=nan",
		"source=0&target=1&budget=-5",
		"sourceCategory=nope&target=1",
		"source=0&source=1&target=2",
		"source=0%00&target=1",
		"alg=DA-SPT&source=0&target=1&budget=100",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, raw string) {
		values, err := url.ParseQuery(raw)
		if err != nil {
			return // not a well-formed query string; the mux rejects it earlier
		}
		withStats := values.Get("stats") == "1"
		withSpans := values.Get("spans") == "1"
		p, err := s.parseQuery(s.snapshot(), values.Get, withStats, withSpans)
		if err != nil {
			// Rejections must be complete sentences usable in a 400 body.
			if err.Error() == "" {
				t.Fatalf("empty error for query %q", raw)
			}
			return
		}
		if len(p.sources) == 0 || len(p.targets) == 0 {
			t.Fatalf("accepted query %q with empty node set", raw)
		}
		if p.k < 1 || p.k > s.maxK {
			t.Fatalf("accepted query %q with k=%d outside [1,%d]", raw, p.k, s.maxK)
		}
		if p.opt == nil {
			t.Fatalf("accepted query %q without options", raw)
		}
		if as := values.Get("alpha"); as != "" && p.opt.Alpha <= 1 {
			t.Fatalf("accepted query %q with alpha=%v", raw, p.opt.Alpha)
		}
		if bs := values.Get("budget"); bs != "" && p.opt.Budget <= 0 {
			t.Fatalf("accepted query %q with budget=%d", raw, p.opt.Budget)
		}
		if withStats != (p.opt.Stats != nil) {
			t.Fatalf("query %q: stats=%v but Stats=%v", raw, withStats, p.opt.Stats)
		}
		if withSpans != (p.opt.Spans != nil) {
			t.Fatalf("query %q: spans=%v but Spans=%v", raw, withSpans, p.opt.Spans)
		}
		for _, id := range p.sources {
			if id < 0 || int(id) >= s.snapshot().g.NumNodes() {
				// Node range is validated by the engine, not the parser;
				// explicit ids may be out of range here. Categories,
				// though, must resolve to valid nodes.
				if strings.TrimSpace(values.Get("sourceCategory")) != "" {
					t.Fatalf("category query %q yielded out-of-range node %d", raw, id)
				}
			}
		}
	})
}

// FuzzApplyDelta hammers POST /update with arbitrary bodies: malformed
// or invalid deltas must never panic, never corrupt the live epoch, and
// never leave the server unable to answer queries. The epoch contract is
// exact — a 200 advances it by one, anything else leaves it untouched —
// and after every request a canary query must still succeed against a
// single consistent generation.
func FuzzApplyDelta(f *testing.F) {
	s, _ := testServer(f)

	seeds := []string{
		`{"setWeights":[{"u":0,"v":1,"w":4}]}`,
		`{"inserts":[{"u":0,"v":35,"w":7}],"deletes":[{"u":1,"v":0}]}`,
		`{"addPOIs":[{"category":"hotel","node":0}],"removePOIs":[{"category":"start","node":0}]}`,
		`{}`,
		`{"setWeights":[]}`,
		`not json at all`,
		`{"setWeights":[{"u":0,"v":1,"w":4}]`,
		`{"unknown":true}`,
		`{"setWeights":[{"u":-1,"v":1,"w":4}]}`,
		`{"setWeights":[{"u":0,"v":1,"w":-4}]}`,
		`{"setWeights":[{"u":0,"v":99999,"w":4}]}`,
		`{"inserts":[{"u":0,"v":1,"w":4}]}`,
		`{"deletes":[{"u":5,"v":5}]}`,
		`{"addPOIs":[{"category":"","node":0}]}`,
		`{"removePOIs":[{"category":"nope","node":0}]}`,
		`{"setWeights":[{"u":0,"v":1,"w":4},{"u":0,"v":1,"w":5}]}`,
		`[]`,
		`null`,
		// Zero is a legal weight: the canary's best path becomes 0→35 at
		// length 0 (the delete makes room; the seeds share one server and
		// the second one inserted that edge at 7).
		`{"deletes":[{"u":0,"v":35}]}`,
		`{"inserts":[{"u":0,"v":35,"w":0}]}`,
	}
	for _, b := range seeds {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, body string) {
		before := s.Epoch()
		req := httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)

		after := s.Epoch()
		switch rec.Code {
		case http.StatusOK:
			if after != before+1 {
				t.Fatalf("200 moved epoch %d -> %d (want +1) for body %q", before, after, body)
			}
			var resp UpdateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with undecodable body: %v", err)
			}
			if resp.Epoch != after {
				t.Fatalf("response epoch %d, server at %d", resp.Epoch, after)
			}
		case http.StatusBadRequest:
			if after != before {
				t.Fatalf("400 moved epoch %d -> %d for body %q", before, after, body)
			}
			if rec.Body.Len() == 0 {
				t.Fatalf("400 with empty body for %q", body)
			}
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}

		// The live generation must still answer queries consistently:
		// whatever the fuzzer did, the canary sees exactly one epoch.
		qreq := httptest.NewRequest(http.MethodGet, "/query?source=0&target=35&k=2", nil)
		qrec := httptest.NewRecorder()
		s.ServeHTTP(qrec, qreq)
		if qrec.Code != http.StatusOK {
			t.Fatalf("canary query failed with %d after body %q: %s", qrec.Code, body, qrec.Body.Bytes())
		}
		var q QueryResponse
		if err := json.Unmarshal(qrec.Body.Bytes(), &q); err != nil {
			t.Fatalf("canary response undecodable: %v", err)
		}
		if q.Epoch != after {
			t.Fatalf("canary saw epoch %d, server at %d", q.Epoch, after)
		}
		for _, p := range q.Paths {
			if p.Length < 0 || len(p.Nodes) < 2 {
				t.Fatalf("canary returned corrupt path %+v after body %q", p, body)
			}
		}
	})
}
