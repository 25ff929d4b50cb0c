package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"slices"
	"strings"
	"testing"

	"kpj"
	"kpj/internal/server"
	"kpj/internal/wire"
)

// The door contract. The paper's one query — the k shortest simple paths
// from V_S to V_T — reaches the engine through several doors: the library
// (one query, Batch), the server's /query and /batch, the router in front
// of them, and kpjquery. testdata/contract.json holds one table of
// semantic rows; each row runs with every algorithm through every door
// that can express it, and every door must give the identical length
// sequence or the identical error class. cmd/kpjquery's test runs the
// same table's kpjquery rows.

// contractTable is testdata/contract.json.
type contractTable struct {
	Graph struct {
		Nodes      int
		BiEdges    [][3]int64
		Edges      [][3]int64
		Categories map[string][]kpj.NodeID
		Landmarks  int
		Seed       int64
	}
	Rows []contractRow
}

// contractRow is one query and the answer every door owes it.
type contractRow struct {
	Name           string
	Source         *kpj.NodeID
	Sources        []kpj.NodeID
	SourceCategory string
	Target         *kpj.NodeID
	Targets        []kpj.NodeID
	Category       string
	K              *int
	Alg            *string // fixed algorithm; nil runs every one
	Alpha          float64
	Budget         *int64
	Canceled       bool            // a context canceled before the query starts
	Server         bool            // a server-only rule: the HTTP doors alone express it
	Item           json.RawMessage // a /batch item sent as is: /batch alone expresses it
	Want           string
	WantByAlg      map[string]string
	Message        string
	Count          *int
}

func loadContract(t *testing.T) (*contractTable, *kpj.Graph, *kpj.Index) {
	t.Helper()
	raw, err := os.ReadFile("testdata/contract.json")
	if err != nil {
		t.Fatal(err)
	}
	var tab contractTable
	if err := json.Unmarshal(raw, &tab); err != nil {
		t.Fatal(err)
	}
	b := kpj.NewBuilder(tab.Graph.Nodes)
	for _, e := range tab.Graph.BiEdges {
		b.AddBiEdge(kpj.NodeID(e[0]), kpj.NodeID(e[1]), kpj.Weight(e[2]))
	}
	for _, e := range tab.Graph.Edges {
		b.AddEdge(kpj.NodeID(e[0]), kpj.NodeID(e[1]), kpj.Weight(e[2]))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, nodes := range tab.Graph.Categories {
		if err := g.AddCategory(name, nodes); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := kpj.BuildIndex(g, tab.Graph.Landmarks, tab.Graph.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return &tab, g, ix
}

// algs lists the algorithm names the row runs with.
func (r *contractRow) algs() []string {
	if r.Alg != nil {
		return []string{*r.Alg}
	}
	var out []string
	for _, a := range kpj.Algorithms() {
		out = append(out, a.String())
	}
	return out
}

func (r *contractRow) want(alg string) string {
	if w, ok := r.WantByAlg[alg]; ok {
		return w
	}
	return r.Want
}

func (r *contractRow) k() int {
	if r.K == nil {
		return 10
	}
	return *r.K
}

// sentinels names the library's error classes as the table writes them.
var sentinels = map[string]error{
	"ErrNodeRange":        kpj.ErrNodeRange,
	"ErrNoCategory":       kpj.ErrNoCategory,
	"ErrBadK":             kpj.ErrBadK,
	"ErrNoSources":        kpj.ErrNoSources,
	"ErrNoTargets":        kpj.ErrNoTargets,
	"ErrBadAlpha":         kpj.ErrBadAlpha,
	"ErrUnknownAlgorithm": kpj.ErrUnknownAlgorithm,
}

// outcome is one door's answer: path lengths (a prefix when truncated),
// or an error's text.
type outcome struct {
	lengths   []kpj.Weight
	truncated bool
	err       string
}

// checkOutcome asserts that got is of the row's class and, for answers,
// that its lengths are ref's.
func checkOutcome(t *testing.T, r *contractRow, alg, door string, got, ref outcome) {
	t.Helper()
	want := r.want(alg)
	switch want {
	case "paths", "truncated":
		if got.err != "" || got.truncated != (want == "truncated") || !slices.Equal(got.lengths, ref.lengths) ||
			(r.Count != nil && len(got.lengths) != *r.Count) {
			t.Errorf("%s / %s / %s: %+v, want %s %v", r.Name, alg, door, got, want, ref.lengths)
		}
	case "request":
		if !strings.Contains(got.err, r.Message) {
			t.Errorf("%s / %s / %s: %+v, want an error with %q", r.Name, alg, door, got, r.Message)
		}
	default:
		if !strings.Contains(got.err, sentinels[want].Error()) {
			t.Errorf("%s / %s / %s: %+v, want %s", r.Name, alg, door, got, want)
		}
	}
}

// libQuery runs the row at the library: one query, or a one-item Batch.
func libQuery(r *contractRow, g *kpj.Graph, ix *kpj.Index, alg string, batch bool) (outcome, error) {
	sources, targets := r.Sources, r.Targets
	if r.Source != nil {
		sources = []kpj.NodeID{*r.Source}
	}
	if r.Target != nil {
		targets = []kpj.NodeID{*r.Target}
	}
	var err error
	if r.SourceCategory != "" {
		sources, err = g.Category(r.SourceCategory)
	}
	if err == nil && r.Category != "" {
		targets, err = g.Category(r.Category)
	}
	opt := kpj.Options{Index: ix, Alpha: r.Alpha}
	if err == nil {
		opt.Algorithm, err = kpj.ParseAlgorithm(alg)
	}
	if err != nil {
		return outcome{err: err.Error()}, err
	}
	if r.Budget != nil {
		opt.Budget = *r.Budget
	}
	if r.Canceled {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		opt.Context = ctx
	}
	var paths []kpj.Path
	if batch {
		res := g.Batch([]kpj.BatchQuery{{Sources: sources, Targets: targets, K: r.k()}}, 1, &opt)
		paths, err = res[0].Paths, res[0].Err
	} else {
		paths, err = g.TopKJoinSets(sources, targets, r.k(), &opt)
	}
	var out outcome
	if partial, ok := kpj.Truncated(err); ok {
		paths, out.truncated = partial, true
	} else if err != nil {
		return outcome{err: err.Error()}, err
	}
	for _, p := range paths {
		out.lengths = append(out.lengths, p.Length)
	}
	return out, err
}

// str formats *p, "" when p is nil.
func str[T any](p *T) string {
	if p == nil {
		return ""
	}
	return fmt.Sprint(*p)
}

// queryURL is the row as /query's URL parameters.
func (r *contractRow) queryURL(alg string) string {
	v := url.Values{"alg": {alg}}
	if r.Alpha != 0 {
		v.Set("alpha", fmt.Sprint(r.Alpha))
	}
	for name, s := range map[string]string{
		"source": str(r.Source), "sourceCategory": r.SourceCategory, "target": str(r.Target),
		"category": r.Category, "k": str(r.K), "budget": str(r.Budget),
	} {
		if s != "" {
			v.Set(name, s)
		}
	}
	return "/query?" + v.Encode()
}

// batchBody is the row as a one-item /batch body. Absent fields go as
// null, which the server reads as absent.
func (r *contractRow) batchBody(alg string) string {
	if r.Item != nil {
		return "[" + string(r.Item) + "]"
	}
	b, _ := json.Marshal([]any{struct {
		Source         *kpj.NodeID  `json:"source"`
		Sources        []kpj.NodeID `json:"sources"`
		SourceCategory string       `json:"sourceCategory"`
		Target         *kpj.NodeID  `json:"target"`
		Targets        []kpj.NodeID `json:"targets"`
		Category       string       `json:"category"`
		K              *int         `json:"k"`
		Alg            string       `json:"alg"`
		Alpha          float64      `json:"alpha"`
		Budget         *int64       `json:"budget"`
	}{r.Source, r.Sources, r.SourceCategory, r.Target, r.Targets, r.Category, r.K, alg, r.Alpha, r.Budget}})
	return string(b)
}

// httpQuery sends the row to a door's /query.
func httpQuery(t *testing.T, h http.Handler, target string) outcome {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	switch rec.Code {
	case http.StatusOK:
		var resp server.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		out := outcome{truncated: resp.Truncated}
		for _, p := range resp.Paths {
			out.lengths = append(out.lengths, p.Length)
		}
		return out
	case http.StatusBadRequest:
		var eb wire.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Kind != wire.KindBadRequest ||
			rec.Header().Get(wire.HeaderErrorKind) != string(wire.KindBadRequest) {
			t.Errorf("%s: 400 without a typed body: %s", target, rec.Body)
		}
		return outcome{err: eb.Error}
	}
	t.Errorf("%s: status %d: %s", target, rec.Code, rec.Body)
	return outcome{err: rec.Body.String()}
}

// httpBatch sends a one-item body to a door's /batch.
func httpBatch(t *testing.T, h http.Handler, body string) outcome {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body)))
	var items []struct {
		Paths     []server.PathJSON
		Truncated bool
		Error     string
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &items); rec.Code != http.StatusOK || err != nil || len(items) != 1 {
		t.Errorf("/batch %s: status %d: %s", body, rec.Code, rec.Body)
		return outcome{err: rec.Body.String()}
	}
	out := outcome{truncated: items[0].Truncated, err: items[0].Error}
	for _, p := range items[0].Paths {
		out.lengths = append(out.lengths, p.Length)
	}
	return out
}

// doorRow is one malformed HTTP request, sent straight to a replica and
// through a router in front of it. Both doors must give the same status
// and kind, in the body and in X-Kpj-Error-Kind, as JSON.
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
	post := func(path, body string, status int, kind wire.Kind) doorRow {
		return doorRow{method: http.MethodPost, path: path, body: body, status: status, kind: kind}
	}
	mismatched := post("/update", `{"setWeights":[{"u":0,"v":1,"w":4}]}`, http.StatusConflict, wire.KindEpochConflict)
	mismatched.header = map[string]string{"X-Kpj-Expect-Epoch": "7"}
	resync := post("/resync", "x", http.StatusBadRequest, wire.KindBadRequest)
	resync.replicaOnly = true
	return []doorRow{
		{method: http.MethodGet, path: "/query?source=x&category=hotel", status: http.StatusBadRequest, kind: wire.KindBadRequest},
		{method: http.MethodGet, path: "/query?source=0&target=x", status: http.StatusBadRequest, kind: wire.KindBadRequest},
		post("/batch", "{bad", http.StatusBadRequest, wire.KindBadRequest),
		post("/batch", oversized, http.StatusRequestEntityTooLarge, wire.KindTooLarge),
		post("/update", "", http.StatusBadRequest, wire.KindBadRequest),
		post("/update", "{bad", http.StatusBadRequest, wire.KindBadRequest),
		post("/update", oversized, http.StatusRequestEntityTooLarge, wire.KindTooLarge),
		mismatched,
		resync,
	}
}

func TestDoorContract(t *testing.T) {
	tab, g, ix := loadContract(t)
	app := server.New(g, ix, server.WithMaxK(10), server.WithLogf(t.Logf))
	srv := httptest.NewServer(app)
	t.Cleanup(srv.Close)
	rt := newTestRouter(t, []*fixture{{name: "r0", app: app, srv: srv}}, nil)
	waitReady(t, rt)
	doors := []struct {
		name string
		h    http.Handler
	}{{"replica", app}, {"router", rt}}

	for i := range tab.Rows {
		r := &tab.Rows[i]
		for _, alg := range r.algs() {
			library := r.want(alg) != "request" && r.Item == nil && !r.Server
			query := r.Sources == nil && r.Targets == nil && r.Item == nil && !r.Canceled
			batch := !r.Canceled
			var ref outcome
			if library {
				var err error
				ref, err = libQuery(r, g, ix, alg, false)
				if s := sentinels[r.want(alg)]; s != nil && !errors.Is(err, s) {
					t.Errorf("%s / %s / library: %v, want errors.Is %v", r.Name, alg, err, s)
				}
				checkOutcome(t, r, alg, "library", ref, ref)
				got, _ := libQuery(r, g, ix, alg, true)
				checkOutcome(t, r, alg, "library Batch", got, ref)
			} else if !r.Canceled && r.want(alg) != "request" {
				t.Fatalf("%s: no library door to compare with", r.Name)
			}
			for _, door := range doors {
				if query {
					checkOutcome(t, r, alg, door.name+" /query", httpQuery(t, door.h, r.queryURL(alg)), ref)
				}
				if batch {
					checkOutcome(t, r, alg, door.name+" /batch", httpBatch(t, door.h, r.batchBody(alg)), ref)
				}
			}
		}
	}

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
	if got := app.Epoch(); got != 0 {
		t.Fatalf("rejected requests moved the replica to epoch %d", got)
	}

	// The router's own views: /healthz reports the fleet's generation, and
	// /categories is the replica's answer.
	rec, body := routerGet(t, rt, "/healthz")
	var health struct {
		Epoch       uint64
		Fingerprint string
	}
	if err := json.Unmarshal(body, &health); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("router /healthz: %d %s", rec.Code, body)
	}
	if fleet := rt.fleetSnapshot(); health.Epoch != fleet.Epoch || health.Fingerprint != fleet.Fingerprint() ||
		health.Fingerprint != wire.FormatFP(ix.Fingerprint()) {
		t.Errorf("router /healthz at %d/%s, fleet at %s, replica index %016x", health.Epoch, health.Fingerprint, fleet, ix.Fingerprint())
	}
	rec, body = routerGet(t, rt, "/categories")
	replica := httptest.NewRecorder()
	app.ServeHTTP(replica, httptest.NewRequest(http.MethodGet, "/categories", nil))
	if rec.Code != http.StatusOK || !bytes.Equal(body, replica.Body.Bytes()) {
		t.Errorf("router /categories %d %s, replica %d %s", rec.Code, body, replica.Code, replica.Body)
	}
}
