// Package server exposes a loaded graph as a small JSON-over-HTTP query
// service (standard library only) — the deployment wrapper a KPJ index
// typically lives behind: build the graph and landmark index once, then
// serve KPJ / KSP / GKPJ queries and batches.
//
// Endpoints:
//
//	GET  /healthz       liveness + graph shape + epoch + fingerprint
//	GET  /readyz        readiness: index loaded and not draining
//	GET  /categories    category names with sizes
//	GET  /query         one query via URL parameters
//	POST /batch         JSON array of queries, answered concurrently
//	POST /update        apply a kpj.Delta and publish a new serving epoch
//
// A /query URL and each /batch item (a JSON object) take one parameter
// list, and one function resolves both:
//
//	source | sources | sourceCategory   exactly one: a node id, a node id list, a category
//	target | targets | category         exactly one, likewise
//	k       number of paths; 10 when absent, at most the server's limit
//	alg     IterBoundI (default), IterBoundP, IterBound, BestFirst, DA, DA-SPT
//	alpha   τ growth factor of the IterBound algorithms; 0 or absent = 1.1
//	budget  positive per-query work cap; over budget, a query returns its
//	        truncated partial results
//
// A URL has no list forms; /query also takes stats=1 and spans=1, and a
// /batch item with another field is refused. Every other rule is the
// library's: a query it refuses (kpj.IsInvalidQuery) is a 400 at /query
// and the item's error at /batch.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kpj"
	"kpj/internal/wal"
	"kpj/internal/wire"
)

// epochState is one immutable serving generation: a graph, its (optional)
// landmark index, and a monotonically increasing sequence number. A new
// generation is published for every successful live update or index
// swap; requests pin the generation they loaded for their whole lifetime.
type epochState struct {
	g   *kpj.Graph
	ix  *kpj.Index // may be nil
	seq uint64
}

// gen is the epoch's generation as the wire carries it.
func (ep *epochState) gen() wire.Gen {
	g := wire.Gen{Epoch: ep.seq}
	if ep.ix != nil {
		g.FP = ep.ix.Fingerprint()
	}
	return g
}

// snapshot returns the current epoch. Handlers call it exactly once per
// request and thread the result through parsing and execution.
func (s *Server) snapshot() *epochState { return s.epoch.Load() }

// Server is the http.Handler. Queries run against one immutable graph and
// optional landmark index; it is safe for concurrent use.
//
// Robustness: every request handler runs behind panic recovery (an engine
// panic becomes a logged 500, not a dead process), query endpoints honor
// the request context (a client disconnect cancels the engine within a
// few hundred heap pops), and optional per-request timeouts, work budgets
// and an in-flight limiter bound worst-case resource use. Queries cut
// short by a deadline or budget still return the paths found so far,
// marked "truncated": true.
type Server struct {
	// epoch holds the serving (graph, index, sequence) triple behind one
	// atomic pointer so live updates (POST /update) and SIGHUP-driven
	// index reloads can publish a new generation while requests are in
	// flight: each request loads the pointer once and runs entirely
	// against that snapshot (graphs and indexes are immutable), so no
	// request ever observes a torn graph/index pair. The index slot may
	// be nil (no index).
	epoch atomic.Pointer[epochState]
	// updateMu serializes epoch mutations (handleUpdate, handleResync,
	// ReloadIndex, Recover): each mutation reads the current epoch,
	// derives its successor, and publishes it as one atomic store.
	updateMu sync.Mutex
	mux      *http.ServeMux
	// maxK bounds per-request k to keep one request from monopolizing
	// the process.
	maxK int
	// timeout is the per-request deadline for /query and /batch (0 =
	// none). Requests that exceed it return truncated partial results.
	timeout time.Duration
	// budget caps per-query engine work (0 = unlimited).
	budget int64
	// inflight, when non-nil, is the load-shedding semaphore for /query
	// and /batch: requests beyond its capacity get 503 + Retry-After.
	inflight chan struct{}
	// logf receives panic reports; defaults to log.Printf.
	logf func(format string, args ...any)
	// metricsReg, when non-nil (WithMetrics), backs the /metrics
	// endpoint and receives the kpj_http_* instrument set.
	metricsReg *kpj.MetricsRegistry
	// met is the instrument set built from metricsReg; without one its
	// instruments are nil and record nothing.
	met serverMetrics
	// pprofOn (WithPprof) exposes net/http/pprof under /debug/pprof/.
	pprofOn bool
	// draining flips on at the start of graceful shutdown: /readyz turns
	// 503 so load balancers stop routing here, and late-arriving queries
	// are shed with 503 + Retry-After while in-flight ones finish.
	draining atomic.Bool
	// hadIndex records whether the server was constructed with an index;
	// readiness then requires one to still be loaded. The only way to lose
	// it is a /resync snapshot that carries none, which makes the replica
	// not-ready rather than silently slow.
	hadIndex bool
	// wal, when non-nil (WithWAL), is the write-ahead delta log: updates
	// are appended and fsynced before their epoch is published, and
	// checkpointEvery controls periodic snapshot+truncate (see
	// durability.go).
	wal             *wal.Log
	checkpointEvery int
	// recovering gates readiness while the WAL suffix is being replayed;
	// recovered/recoverTotal expose replay progress on /readyz.
	recovering   atomic.Bool
	recovered    atomic.Int64
	recoverTotal atomic.Int64
	// maxUpdateBytes caps a POST /update body (WithMaxUpdateBytes;
	// default wire.MaxBodyBytes). Oversized bodies are rejected with 413.
	maxUpdateBytes int64
}

// Option configures a Server.
type Option func(*Server)

// WithMaxK overrides the per-request k limit (default 1000).
func WithMaxK(k int) Option {
	return func(s *Server) { s.maxK = k }
}

// WithTimeout sets a per-request deadline for /query and /batch. A query
// that hits it returns its partial results with "truncated": true rather
// than an error (d <= 0 disables the deadline).
func WithTimeout(d time.Duration) Option {
	return func(s *Server) { s.timeout = d }
}

// WithBudget caps the engine work (heap pops + edge relaxations) of each
// query, bounding worst-case latency independently of graph size or k.
// Over-budget queries return truncated partial results (n <= 0 disables).
func WithBudget(n int64) Option {
	return func(s *Server) { s.budget = n }
}

// WithMaxInFlight bounds the number of concurrently executing /query and
// /batch requests; excess requests are shed with 503 + Retry-After
// instead of queueing without bound (n <= 0 means unlimited).
func WithMaxInFlight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.inflight = make(chan struct{}, n)
		} else {
			s.inflight = nil
		}
	}
}

// WithLogf redirects the server's panic/error log (default log.Printf).
func WithLogf(logf func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = logf }
}

// WithParallelism is ignored: the engine resolves one subspace at a time
// and the server spends its cores across concurrent requests instead.
// It remains only because the benchmark harness in bench/kpjload still
// calls it; it goes once that call is dropped.
func WithParallelism(int) Option {
	return func(*Server) {}
}

// WithBoundsCacheSize is ignored: every query builds its bound tables in
// its own workspace. It remains only because the benchmark harness in
// bench/kpjload still calls it; it goes once that call is dropped.
func WithBoundsCacheSize(int) Option {
	return func(*Server) {}
}

// New builds a Server over g with an optional landmark index.
func New(g *kpj.Graph, ix *kpj.Index, opts ...Option) *Server {
	s := &Server{mux: http.NewServeMux(), maxK: 1000, logf: log.Printf,
		maxUpdateBytes: wire.MaxBodyBytes}
	s.epoch.Store(&epochState{g: g, ix: ix})
	s.hadIndex = ix != nil
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /categories", s.handleCategories)
	s.mux.HandleFunc("GET /query", s.limited(s.handleQuery))
	s.mux.HandleFunc("POST /batch", s.limited(s.handleBatch))
	s.mux.HandleFunc("POST /update", s.handleUpdate)
	s.mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /resync", s.handleResync)
	s.installObs()
	return s
}

// ServeHTTP implements http.Handler. Panics anywhere below become logged
// 500s so one poisoned request cannot take the process down.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			s.logf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			// Best effort: if the handler already wrote a header this is
			// a no-op on the status line.
			wire.WriteError(w, http.StatusInternalServerError, wire.KindInternal, "internal error")
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// limited wraps a query handler with the in-flight semaphore: when the
// server is saturated the request is shed immediately with 503 and a
// Retry-After hint instead of piling onto the queue.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			wire.WriteError(w, http.StatusServiceUnavailable, wire.KindDraining, "draining")
			s.met.shed.Inc()
			return
		}
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				wire.WriteError(w, http.StatusServiceUnavailable, wire.KindDraining, "too many in-flight queries")
				s.met.shed.Inc()
				return
			}
		}
		h(w, r)
	}
}

// queryContext derives the execution context for one request: the request
// context (so client disconnects cancel the engine) plus the configured
// per-request timeout.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(r.Context(), s.timeout)
	}
	return context.WithCancel(r.Context())
}

// PathJSON is one result path on the wire.
type PathJSON struct {
	Nodes  []kpj.NodeID `json:"nodes"`
	Length kpj.Weight   `json:"length"`
}

// QueryResponse is the /query response body.
type QueryResponse struct {
	Paths  []PathJSON `json:"paths"`
	Micros int64      `json:"micros"`
	// Epoch is the serving generation this query ran against. A query
	// racing a live update sees exactly one generation — its paths,
	// Epoch, and Fingerprint are all drawn from the same snapshot.
	Epoch uint64 `json:"epoch"`
	// Fingerprint identifies the index generation (present when the
	// epoch carries an index).
	Fingerprint string `json:"fingerprint,omitempty"`
	// TimeoutMicros echoes the per-request deadline that applied (0 =
	// none), so callers can tell how much time the query was allowed.
	TimeoutMicros int64 `json:"timeoutMicros,omitempty"`
	// Truncated marks partial results: the query hit its deadline or
	// work budget and Paths holds only the prefix found in time.
	Truncated bool       `json:"truncated,omitempty"`
	Stats     *kpj.Stats `json:"stats,omitempty"`
	// Spans, present with spans=1, is the query's phase timeline:
	// {"spans":[{name,n,startMicros,durMicros,val}...],"dropped":N}.
	Spans json.RawMessage `json:"spans,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	ep := s.snapshot()
	body := wire.Healthz{
		Status:      "ok",
		Nodes:       ep.g.NumNodes(),
		Edges:       ep.g.NumEdges(),
		Categories:  len(ep.g.Categories()),
		Indexed:     ep.ix != nil,
		Epoch:       ep.seq,
		Fingerprint: ep.gen().Fingerprint(),
		Draining:    s.draining.Load(),
	}
	wire.WriteJSON(w, http.StatusOK, body)
}

// handleReadyz is the load-balancer signal, split out of /healthz:
// liveness (healthz) answers "is the process up", readiness answers
// "should this replica receive traffic". Not-ready means draining (the
// drain window of a graceful shutdown has begun) or, for servers built
// with an index, the index having been swapped out. kpjrouter probes it
// and stops routing to a draining replica before its listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ep := s.snapshot()
	ready, reason := s.readiness()
	body := wire.Readyz{Ready: ready, Epoch: ep.seq, Fingerprint: ep.gen().Fingerprint(), Reason: reason}
	if s.recovering.Load() {
		recovered, total := s.recovered.Load(), s.recoverTotal.Load()
		body.Recovered, body.RecoverTotal = &recovered, &total
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	wire.WriteJSON(w, status, body)
}

// readiness evaluates the readiness conditions in order of severity.
func (s *Server) readiness() (ready bool, reason string) {
	if s.draining.Load() {
		return false, "draining"
	}
	if s.recovering.Load() {
		return false, fmt.Sprintf("recovering (%d/%d records)",
			s.recovered.Load(), s.recoverTotal.Load())
	}
	if s.hadIndex && s.index() == nil {
		return false, "index unloaded"
	}
	return true, ""
}

// StartDraining flips the server into drain mode: /readyz starts
// answering 503 (so routers and load balancers stop sending traffic) and
// new /query and /batch arrivals are shed with 503 + Retry-After, while
// requests already executing run to completion. Call it at the start of
// graceful shutdown, before http.Server.Shutdown closes the listener —
// the gap lets the routing tier observe not-ready while the process can
// still answer. Draining is one-way; idempotent.
func (s *Server) StartDraining() { s.draining.Store(true) }

func (s *Server) handleCategories(w http.ResponseWriter, _ *http.Request) {
	g := s.snapshot().g
	out := map[string]int{}
	for _, name := range g.Categories() {
		nodes, err := g.Category(name)
		if err != nil {
			wire.WriteError(w, http.StatusInternalServerError, wire.KindInternal, "category %q: %v", name, err)
			return
		}
		out[name] = len(nodes)
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

// request is one query as a client gives it: /query's URL parameters and
// each /batch item decode into it, and resolve checks it the same way for
// both endpoints.
type request struct {
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
}

// decodeURL reads a request from /query's URL parameters. A URL names
// one node per end, so source and target fill the list forms, which have
// no parameter of their own. It refuses only what does not parse.
func decodeURL(q url.Values) (request, error) {
	req := request{SourceCategory: q.Get("sourceCategory"), Category: q.Get("category"), Alg: q.Get("alg")}
	for _, name := range [...]string{"source", "target", "k", "budget", "alpha"} {
		s := q.Get(name)
		if s == "" {
			continue
		}
		var err error
		switch name {
		case "source", "target":
			id, e := strconv.ParseInt(s, 10, 32)
			if err = e; name == "source" {
				req.Sources = []kpj.NodeID{kpj.NodeID(id)}
			} else {
				req.Targets = []kpj.NodeID{kpj.NodeID(id)}
			}
		case "k":
			k, e := strconv.Atoi(s)
			req.K, err = &k, e
		case "budget":
			budget, e := strconv.ParseInt(s, 10, 64)
			req.Budget, err = &budget, e
		default:
			req.Alpha, err = strconv.ParseFloat(s, 64)
		}
		if err != nil {
			return req, fmt.Errorf("bad %s %q", name, s)
		}
	}
	return req, nil
}

// resolve turns a request into the library's query and options against
// ep. It checks only what the library cannot see: one form of each end,
// category names, k's default and cap, and a positive budget; k ≥ 1,
// node range, non-empty sets, α and the algorithm name are the
// library's.
func (s *Server) resolve(ep *epochState, req *request) (q kpj.BatchQuery, opt kpj.Options, err error) {
	if q.Sources, err = nodeSet(ep.g, req.Source, req.Sources, req.SourceCategory,
		"source, sources or sourceCategory"); err != nil {
		return q, opt, err
	}
	if q.Targets, err = nodeSet(ep.g, req.Target, req.Targets, req.Category,
		"target, targets or category"); err != nil {
		return q, opt, err
	}
	q.K = 10
	if req.K != nil {
		q.K = *req.K
	}
	if q.K > s.maxK {
		return q, opt, fmt.Errorf("k %d exceeds the server limit %d", q.K, s.maxK)
	}
	opt = kpj.Options{Index: ep.ix, Alpha: req.Alpha, Budget: s.budget}
	if req.Budget != nil {
		if *req.Budget <= 0 {
			return q, opt, fmt.Errorf("bad budget %d (must be positive)", *req.Budget)
		}
		opt.Budget = *req.Budget
	}
	opt.Algorithm, err = kpj.ParseAlgorithm(req.Alg)
	return q, opt, err
}

// nodeSet resolves one end of a query from exactly one of a node id, a
// node list and a category name; forms names the three for the error.
func nodeSet(g *kpj.Graph, id *kpj.NodeID, ids []kpj.NodeID, category, forms string) ([]kpj.NodeID, error) {
	if id != nil && ids == nil {
		id, ids = nil, []kpj.NodeID{*id}
	}
	if id != nil || (ids != nil) == (category != "") {
		return nil, fmt.Errorf("give exactly one of %s", forms)
	}
	if ids != nil {
		return ids, nil
	}
	return g.Category(category)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	reqStart := time.Now()
	q := r.URL.Query()
	ep := s.snapshot()
	// Stamp the serving generation on every /query outcome (success or
	// error) so the routing tier can fence without parsing bodies.
	gen := ep.gen()
	gen.SetHeader(w.Header())
	req, err := decodeURL(q)
	var bq kpj.BatchQuery
	var opt kpj.Options
	if err == nil {
		bq, opt, err = s.resolve(ep, &req)
	}
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.KindBadRequest, "%v", err)
		s.met.observeQuery(reqStart, true, false)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	opt.Context = ctx
	if q.Get("stats") == "1" {
		opt.Stats = &kpj.Stats{}
	}
	if q.Get("spans") == "1" {
		opt.Spans = kpj.NewSpans()
	}
	start := time.Now()
	paths, qerr := s.execQuery(ep, bq, &opt)
	if qerr != nil && kpj.IsInvalidQuery(qerr) {
		wire.WriteError(w, http.StatusBadRequest, wire.KindBadRequest, "%v", qerr)
		s.met.observeQuery(reqStart, true, false)
		return
	}
	truncated := false
	if qerr != nil {
		if partial, ok := kpj.Truncated(qerr); ok {
			paths, truncated = partial, true
		} else {
			wire.WriteError(w, http.StatusInternalServerError, wire.KindInternal, "%v", qerr)
			s.met.observeQuery(reqStart, true, false)
			return
		}
	}
	resp := QueryResponse{
		Paths:         pathsJSON(paths),
		Micros:        time.Since(start).Microseconds(),
		Epoch:         ep.seq,
		TimeoutMicros: s.timeout.Microseconds(),
		Truncated:     truncated,
		Stats:         opt.Stats,
		Fingerprint:   gen.Fingerprint(),
	}
	if opt.Spans != nil {
		var buf bytes.Buffer
		if opt.Spans.WriteJSON(&buf) == nil {
			resp.Spans = buf.Bytes()
		}
	}
	wire.WriteJSON(w, http.StatusOK, resp)
	s.met.observeQuery(reqStart, false, truncated)
}

// batchResponseItem is the result at the same index. A truncated item
// (deadline or budget hit mid-query, or never started) carries the
// partial paths with Truncated set instead of an error.
type batchResponseItem struct {
	Paths     []PathJSON `json:"paths,omitempty"`
	Truncated bool       `json:"truncated,omitempty"`
	Error     string     `json:"error,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	reqStart := time.Now()
	var items []json.RawMessage
	body, ok := wire.ReadBody(w, r, wire.MaxBodyBytes)
	if ok {
		if err := json.Unmarshal(body, &items); err != nil {
			wire.WriteError(w, http.StatusBadRequest, wire.KindBadRequest, "bad JSON: %v", err)
			ok = false
		}
	}
	if !ok {
		s.met.observeBatch(reqStart, true, 0)
		return
	}
	ep := s.snapshot()
	out := make([]batchResponseItem, len(items))
	// Items with equal options run as one kpj.Batch.
	type group struct {
		opt     kpj.Options
		queries []kpj.BatchQuery
		idx     []int // the item each query answers
	}
	var groups []*group
	for i, raw := range items {
		var req request
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			out[i].Error = fmt.Sprintf("bad JSON: %v", err)
			continue
		}
		q, opt, err := s.resolve(ep, &req)
		if err != nil {
			out[i].Error = err.Error()
			continue
		}
		j := slices.IndexFunc(groups, func(g *group) bool { return g.opt == opt })
		if j < 0 {
			j, groups = len(groups), append(groups, &group{opt: opt})
		}
		groups[j].queries, groups[j].idx = append(groups[j].queries, q), append(groups[j].idx, i)
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	var truncatedItems int64
	for _, g := range groups {
		g.opt.Context = ctx
		// Batches parallelize across queries (one worker per core).
		for j, res := range ep.g.Batch(g.queries, 0, &g.opt) {
			it := &out[g.idx[j]]
			if _, ok := kpj.Truncated(res.Err); ok {
				it.Truncated = true
				truncatedItems++
			} else if res.Err != nil {
				it.Error = res.Err.Error()
				continue
			}
			it.Paths = pathsJSON(res.Paths)
		}
	}
	wire.WriteJSON(w, http.StatusOK, out)
	s.met.observeBatch(reqStart, false, truncatedItems)
}

func pathsJSON(paths []kpj.Path) []PathJSON {
	out := make([]PathJSON, len(paths))
	for i, p := range paths {
		out[i] = PathJSON{Nodes: p.Nodes, Length: p.Length}
	}
	return out
}
