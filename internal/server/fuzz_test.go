package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"kpj"
	"kpj/internal/wire"
)

// FuzzParseQuery sends arbitrary URL query strings to /query through
// ServeHTTP. The door answers 200 or a typed 400, never anything else; a
// 400 arises exactly when the string does not parse (decodeURL, resolve)
// or the library refuses the query it names (kpj.IsInvalidQuery); and no
// 200 ran with k outside [1, maxK], a non-positive budget, or α ≤ 1 on an
// algorithm that uses α.
func FuzzParseQuery(f *testing.F) {
	s, g := testServer(f)

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
	usesAlpha := map[string]bool{"": true, "IterBoundI": true, "IterBoundP": true, "IterBound": true}

	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest(http.MethodGet, "/query", nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)

		// What the door should say, from the parse and the library alone.
		values := req.URL.Query()
		r, parseErr := decodeURL(values)
		var libErr error
		if parseErr == nil {
			var q kpj.BatchQuery
			var opt kpj.Options
			if q, opt, parseErr = s.resolve(s.snapshot(), &r); parseErr == nil {
				_, libErr = g.TopKJoinSets(q.Sources, q.Targets, q.K, &opt)
			}
		}
		invalid := parseErr != nil || kpj.IsInvalidQuery(libErr)

		switch rec.Code {
		case http.StatusBadRequest:
			var eb wire.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" ||
				eb.Kind != wire.KindBadRequest || rec.Header().Get(wire.HeaderErrorKind) != string(wire.KindBadRequest) {
				t.Fatalf("query %q: 400 without a typed body: %s", raw, rec.Body)
			}
			if !invalid {
				t.Fatalf("query %q: 400 %s, but it parses and the library accepts it (%v)", raw, eb.Error, libErr)
			}
			return
		case http.StatusOK:
			if invalid {
				t.Fatalf("query %q: 200, but parse says %v and the library %v", raw, parseErr, libErr)
			}
		default:
			t.Fatalf("query %q: status %d, want 200 or 400: %s", raw, rec.Code, rec.Body)
		}

		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("query %q: undecodable 200: %v", raw, err)
		}
		k := 10
		if ks := values.Get("k"); ks != "" {
			k, _ = strconv.Atoi(ks)
		}
		if k < 1 || k > s.maxK || len(resp.Paths) > k {
			t.Fatalf("query %q: 200 with k=%d outside [1,%d] (%d paths)", raw, k, s.maxK, len(resp.Paths))
		}
		if bs := values.Get("budget"); bs != "" {
			if b, _ := strconv.ParseInt(bs, 10, 64); b <= 0 {
				t.Fatalf("query %q: 200 with budget=%d", raw, b)
			}
		}
		if as := values.Get("alpha"); as != "" && usesAlpha[values.Get("alg")] {
			// Alpha 0 is the library's default (1.1), not a factor.
			if a, _ := strconv.ParseFloat(as, 64); a != 0 && !(a > 1) {
				t.Fatalf("query %q: 200 with alpha=%v on %q", raw, a, values.Get("alg"))
			}
		}
		if withStats := values.Get("stats") == "1"; withStats != (resp.Stats != nil) {
			t.Fatalf("query %q: stats=%v but the response has stats %v", raw, withStats, resp.Stats)
		}
		if withSpans := values.Get("spans") == "1"; withSpans != (len(resp.Spans) > 0) {
			t.Fatalf("query %q: spans=%v but the response has spans %q", raw, withSpans, resp.Spans)
		}
		for _, p := range resp.Paths {
			for _, v := range p.Nodes {
				if v < 0 || int(v) >= g.NumNodes() {
					t.Fatalf("query %q: path through out-of-range node %d", raw, v)
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
