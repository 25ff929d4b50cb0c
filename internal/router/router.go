// Package router implements the replica routing tier behind cmd/kpjrouter:
// an HTTP front that keeps KPJ queries answering while any one of N
// kpjserver replicas is healthy.
//
// Routing policy, in the order it is applied to a query:
//
//  1. Rotation: each request starts at the next up replica in turn (a
//     router-wide counter), so load spreads evenly; every replica holds
//     the same graph and index, and builds a query's bound tables per
//     query, so any up replica answers equally well.
//  2. Down replicas last: replicas whose /readyz probe failed (dead,
//     draining, recovering, stale) follow every up one, as a last resort
//     in case every probe is stale.
//  3. Hedging: if the primary has not answered after an adaptive latency
//     threshold (EWMA + 4·deviation of observed latencies, clamped), the
//     same request is sent to the next candidate and the first usable
//     answer wins; the loser is canceled.
//  4. Failover: upstream connection errors and 5xx answers move to the
//     next candidate, bounded by MaxAttempts per request and a
//     router-wide retry token budget so a sick fleet cannot be melted by
//     retry amplification.
//
// Every router-originated failure is a typed JSON error ({"error","kind"}
// plus an X-Kpj-Error-Kind header) — clients never see an untyped 5xx.
// All timing flows through an injectable Clock and every upstream request
// through Config.Transport, so the chaos suite can replay per-replica
// failure schedules deterministically.
package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"kpj/internal/obs"
	"kpj/internal/wire"
)

// ReplicaConfig names one backend.
type ReplicaConfig struct {
	Name string // the replica's name in logs, metrics and the X-Kpj-Replica header
	URL  string // base URL, e.g. http://10.0.0.7:8080
}

// Config parameterizes a Router. Zero values take the defaults noted on
// each field.
type Config struct {
	Replicas []ReplicaConfig

	ProbeInterval   time.Duration // between probes of an up replica; default 500ms
	ProbeTimeout    time.Duration // per probe-request deadline; default 1s
	DownAfter       int           // consecutive failures that mark a replica down; default 2
	MaxProbeBackoff time.Duration // cap on the down-replica re-probe backoff; default 8s

	HedgeAfter time.Duration // fixed hedge delay; 0 = adaptive from observed latency
	MaxHedge   time.Duration // adaptive clamp ceiling (and pre-warmup delay); default 1s

	MaxAttempts    int           // per-request attempt cap, hedges included; default 3
	RetryBudget    int           // retry token bucket capacity; default 64
	RequestTimeout time.Duration // per proxied attempt; default 30s, < 0 disables

	MaxUpdateBytes int64 // POST /update body cap; default wire.MaxBodyBytes

	Seed      int64             // probe-jitter seed; fixed seed => reproducible schedule
	Clock     Clock             // default: wall clock
	Transport http.RoundTripper // default: a private http.Transport
	Logf      func(format string, args ...any)
	Metrics   *obs.Registry // optional: enables /metrics and the kpj_router_* set
}

// Router is the http.Handler. Safe for concurrent use; Close releases
// its probe goroutines and idle connections.
type Router struct {
	cfg    Config
	clock  Clock
	client *http.Client
	logf   func(format string, args ...any)
	mux    *http.ServeMux
	met    routerMetrics

	// The replica set is fixed at New; rotor picks each request's first
	// up replica (candidates).
	reps  []*replica
	rotor atomic.Uint64

	fp     atomic.Uint64 // latest index fingerprint reported by any ready replica
	lat    latencyTracker
	budget atomic.Int64 // retry tokens × tokenScale

	// Replicated-update state (update.go): updateMu serializes fan-outs
	// (write side) and keeps probes (read side) out of them, fleet is the
	// monotonically adopted (epoch, fingerprint) the fleet agrees on, and
	// resyncWG tracks background resync goroutines for Close.
	updateMu sync.RWMutex
	fleet    atomic.Pointer[wire.Gen]
	resyncWG sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand

	ctx    context.Context
	cancel context.CancelFunc
	closed atomic.Bool
}

// tokenScale makes the retry budget refill in fractional steps: every
// clean primary answer earns 1/tokenScale of a token, every retry or
// hedge spends a whole one — steady-state retry amplification is bounded
// at ~10% on top of the initial bucket.
const tokenScale = 10

// minHedge is the adaptive hedge delay's floor.
const minHedge = 2 * time.Millisecond

// New builds a Router over cfg.Replicas — the replica set is fixed for
// the Router's lifetime — and starts one probe loop per replica. The
// caller must Close it.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: at least one replica is required")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 2
	}
	if cfg.MaxProbeBackoff <= 0 {
		cfg.MaxProbeBackoff = 8 * time.Second
	}
	if cfg.MaxHedge <= 0 {
		cfg.MaxHedge = time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 64
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxUpdateBytes <= 0 {
		cfg.MaxUpdateBytes = wire.MaxBodyBytes
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{MaxIdleConnsPerHost: 16}
	}

	rt := &Router{
		cfg:    cfg,
		clock:  cfg.Clock,
		client: &http.Client{Transport: transport},
		logf:   cfg.Logf,
		mux:    http.NewServeMux(),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	rt.budget.Store(int64(cfg.RetryBudget) * tokenScale)

	seen := map[string]bool{}
	for i, rc := range cfg.Replicas {
		name := rc.Name
		if name == "" {
			name = fmt.Sprintf("r%d", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("router: duplicate replica name %q", name)
		}
		seen[name] = true
		base, err := url.Parse(rc.URL)
		if err != nil || base.Scheme == "" || base.Host == "" {
			return nil, fmt.Errorf("router: bad replica URL %q", rc.URL)
		}
		rt.reps = append(rt.reps, &replica{name: name, base: base, done: make(chan struct{})})
	}
	rt.met = newRouterMetrics(cfg.Metrics, rt)

	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /query", rt.handleQuery)
	rt.mux.HandleFunc("POST /batch", rt.handleBatch)
	rt.mux.HandleFunc("POST /update", rt.handleUpdate)
	rt.mux.HandleFunc("GET /categories", rt.handleCategories)
	wire.MountMetrics(rt.mux, cfg.Metrics)

	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	for _, rp := range rt.reps {
		go rt.probeLoop(rp)
	}
	return rt, nil
}

// Close stops every probe loop and releases idle backend connections.
// Idempotent; the Router must not serve requests afterwards.
func (rt *Router) Close() {
	if rt.closed.Swap(true) {
		return
	}
	rt.cancel()
	for _, rp := range rt.reps {
		<-rp.done
	}
	rt.resyncWG.Wait()
	rt.client.CloseIdleConnections()
}

// ServeHTTP implements http.Handler with blanket panic recovery: a bug
// anywhere below answers a typed 500, never a dead routing tier.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			rt.logf("router: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			wire.WriteError(w, http.StatusInternalServerError, wire.KindInternal, "internal error")
		}
	}()
	rt.mux.ServeHTTP(w, r)
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := rt.clock.Now()
	res := rt.do(r.Context(), http.MethodGet, "/query", r.URL.RawQuery, nil)
	rt.met.observeRequest("query", rt.clock.Now().Sub(start), res)
	rt.writeResult(w, res)
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := rt.clock.Now()
	body, ok := wire.ReadBody(w, r, wire.MaxBodyBytes)
	if !ok {
		return
	}
	res := rt.do(r.Context(), http.MethodPost, "/batch", "", body)
	rt.met.observeRequest("batch", rt.clock.Now().Sub(start), res)
	rt.writeResult(w, res)
}

func (rt *Router) handleCategories(w http.ResponseWriter, r *http.Request) {
	start := rt.clock.Now()
	res := rt.do(r.Context(), http.MethodGet, "/categories", "", nil)
	rt.met.observeRequest("categories", rt.clock.Now().Sub(start), res)
	rt.writeResult(w, res)
}

// handleHealthz reports the router's own view: per-replica state, the
// serving fingerprint, and the live hedge threshold.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	replicas := map[string]any{}
	routable := 0
	for _, rp := range rt.reps {
		st := rp.State()
		if st != stateDown {
			routable++
		}
		replicas[rp.name] = map[string]any{
			"url":   rp.base.String(),
			"state": st.String(),
		}
	}
	status := "ok"
	if routable == 0 {
		status = "no routable replicas"
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"replicas":    replicas,
		"epoch":       rt.fleetSnapshot().Epoch,
		"fingerprint": wire.FormatFP(rt.fp.Load()),
		"hedgeMicros": rt.hedgeDelay().Microseconds(),
	})
}

// handleReadyz: the router is ready while at least one replica is
// routable (not down).
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	for _, rp := range rt.reps {
		if rp.State() != stateDown {
			wire.WriteJSON(w, http.StatusOK, map[string]bool{"ready": true})
			return
		}
	}
	wire.WriteError(w, http.StatusServiceUnavailable, wire.KindUnavailable, "no routable replicas")
}

// candidates orders the replicas for one request: the up replicas,
// rotated to start at the next one in turn, then — last resort, in case
// every probe is stale — the down replicas. Element 0 is the primary; the
// rest are hedge/failover targets in order.
func (rt *Router) candidates() []*replica {
	var up, down []*replica
	for _, rp := range rt.reps {
		if rp.State() == stateDown {
			down = append(down, rp)
		} else {
			up = append(up, rp)
		}
	}
	out := make([]*replica, 0, len(rt.reps))
	if n := len(up); n > 0 {
		start := int(rt.rotor.Add(1) % uint64(n))
		out = append(append(out, up[start:]...), up[:start]...)
	}
	return append(out, down...)
}

// attemptResult is one proxied attempt's outcome, buffered in full so a
// response can be replayed to the client after losers are canceled.
type attemptResult struct {
	replica *replica
	order   int // 0 = primary, >= 1 = hedge/failover
	status  int
	header  http.Header
	body    []byte
	err     error
}

// usable reports whether this attempt should be returned to the client:
// any answer the replica produced deliberately (2xx, 4xx) is final;
// connection errors, 5xx, and 503 sheds are failover fodder.
func (a attemptResult) usable() bool {
	return a.err == nil && a.status < 500
}

// do runs the hedged, budget-bounded attempt loop for one request. It
// returns the first usable answer, or the last failure once candidates,
// the attempt cap, or the retry budget are exhausted.
func (rt *Router) do(ctx context.Context, method, path, rawQuery string, body []byte) attemptResult {
	cands := rt.candidates()
	if len(cands) == 0 {
		return attemptResult{err: fmt.Errorf("no replicas configured")}
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan attemptResult, len(cands))
	next := 0
	pending := 0
	launch := func() {
		rp := cands[next]
		order := next
		next++
		pending++
		go func() {
			defer func() {
				if p := recover(); p != nil {
					results <- attemptResult{replica: rp, order: order, err: fmt.Errorf("proxy panic: %v", p)}
				}
			}()
			results <- rt.attempt(actx, rp, order, method, path, rawQuery, body)
		}()
	}

	launch() // the primary attempt is free
	var hedgeCh <-chan time.Time
	if len(cands) > 1 {
		hedgeCh = rt.clock.After(rt.hedgeDelay())
	}
	start := rt.clock.Now()
	var lastFail attemptResult
	lastFail.err = fmt.Errorf("no attempt completed")
	for {
		select {
		case <-ctx.Done():
			return attemptResult{err: fmt.Errorf("%w", ctx.Err())}
		case <-hedgeCh:
			hedgeCh = nil
			if next < len(cands) && next < rt.cfg.MaxAttempts && rt.takeToken() {
				rt.met.hedges.Inc()
				launch()
			}
		case res := <-results:
			pending--
			if res.usable() {
				cancel() // losers abort; their sends land in the buffered channel
				if res.order == 0 {
					rt.creditToken()
				} else {
					rt.met.hedgeWins.Inc()
				}
				rt.lat.observe(rt.clock.Now().Sub(start))
				return res
			}
			if res.err != nil {
				// Connection-level failure: feed the replica state machine
				// so the next request avoids this replica before the next
				// probe cycle confirms it.
				rt.noteFailure(res.replica, res.err)
			}
			lastFail = res
			rt.met.failovers.Inc()
			if next < len(cands) && next < rt.cfg.MaxAttempts && rt.takeToken() {
				launch()
				continue
			}
			if pending == 0 {
				return lastFail
			}
		}
	}
}

// attempt proxies one request to one replica, buffering the full
// response (bounded at 32MB) so mid-stream replica death surfaces here
// as an error rather than as a half-written client response.
func (rt *Router) attempt(ctx context.Context, rp *replica, order int, method, path, rawQuery string, body []byte) attemptResult {
	res := attemptResult{replica: rp, order: order}
	ctx, cancel := rt.requestContext(ctx)
	defer cancel()
	res.status, res.header, res.body, res.err = rt.send(ctx, rp, method, path, rawQuery, body, nil, 32<<20)
	return res
}

// requestContext bounds one upstream attempt by RequestTimeout.
func (rt *Router) requestContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if rt.cfg.RequestTimeout > 0 {
		return context.WithTimeout(ctx, rt.cfg.RequestTimeout)
	}
	return ctx, func() {}
}

// send makes one request to rp, JSON-typed when it has a body, with
// header added, and buffers up to limit bytes of the answer.
func (rt *Router) send(ctx context.Context, rp *replica, method, path, rawQuery string, body []byte, header http.Header, limit int64) (int, http.Header, []byte, error) {
	u := *rp.base
	u.Path, u.RawQuery = path, rawQuery
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u.String(), rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, resp.Header, b, nil
}

// passThrough lists the upstream headers a usable answer keeps verbatim.
var passThrough = []string{"Content-Type", "Retry-After",
	wire.HeaderEpoch, wire.HeaderFingerprint, wire.HeaderErrorKind}

// writeResult renders an attempt outcome: usable upstream answers pass
// through with the passThrough headers plus an X-Kpj-Replica
// attribution; everything else becomes a typed error.
func (rt *Router) writeResult(w http.ResponseWriter, res attemptResult) {
	if res.usable() {
		for _, h := range passThrough {
			if v := res.header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.Header().Set(wire.HeaderReplica, res.replica.name)
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
		return
	}
	switch {
	case res.err != nil && errors.Is(res.err, context.Canceled):
		wire.WriteError(w, http.StatusServiceUnavailable, wire.KindCanceled, "request canceled")
	case res.err != nil:
		wire.WriteError(w, http.StatusServiceUnavailable, wire.KindUnavailable, "no replica available: %v", res.err)
	case res.status == http.StatusServiceUnavailable:
		// Every candidate shed or is draining; propagate its Retry-After.
		if v := res.header.Get("Retry-After"); v != "" {
			w.Header().Set("Retry-After", v)
		}
		wire.WriteError(w, http.StatusServiceUnavailable, wire.KindUnavailable, "all replicas shedding")
	default:
		wire.WriteError(w, http.StatusServiceUnavailable, wire.KindUpstream,
			"upstream failure (status %d) after retries", res.status)
	}
}

// hedgeDelay is the wait before a request is hedged: the fixed
// HedgeAfter when configured, otherwise EWMA + 4·deviation of observed
// request latency clamped to [minHedge, MaxHedge] — before any sample
// exists it waits the full MaxHedge, hedging only against outright
// stalls.
func (rt *Router) hedgeDelay() time.Duration {
	if rt.cfg.HedgeAfter > 0 {
		return rt.cfg.HedgeAfter
	}
	d, ok := rt.lat.threshold()
	if !ok {
		return rt.cfg.MaxHedge
	}
	if d < minHedge {
		d = minHedge
	}
	if d > rt.cfg.MaxHedge {
		d = rt.cfg.MaxHedge
	}
	return d
}

// takeToken spends one retry token; refusal bounds fleet-wide retry and
// hedge amplification when everything is failing at once.
func (rt *Router) takeToken() bool {
	for {
		v := rt.budget.Load()
		if v < tokenScale {
			rt.met.denied.Inc()
			return false
		}
		if rt.budget.CompareAndSwap(v, v-tokenScale) {
			return true
		}
	}
}

// creditToken refills 1/tokenScale of a token after a clean primary
// answer, capped at the configured capacity.
func (rt *Router) creditToken() {
	max := int64(rt.cfg.RetryBudget) * tokenScale
	for {
		v := rt.budget.Load()
		if v >= max {
			return
		}
		if rt.budget.CompareAndSwap(v, v+1) {
			return
		}
	}
}

// latencyTracker keeps the adaptive hedge estimate: a TCP-RTT-style
// smoothed latency and mean deviation over winning request latencies.
type latencyTracker struct {
	mu   sync.Mutex
	n    int
	ewma float64 // microseconds
	dev  float64
}

func (l *latencyTracker) observe(d time.Duration) {
	us := float64(d.Microseconds())
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		l.ewma, l.dev = us, us/2
	} else {
		diff := us - l.ewma
		if diff < 0 {
			diff = -diff
		}
		l.dev += 0.25 * (diff - l.dev)
		l.ewma += 0.2 * (us - l.ewma)
	}
	l.n++
}

// threshold returns ewma + 4·dev, or ok=false before any sample.
func (l *latencyTracker) threshold() (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return 0, false
	}
	return time.Duration(l.ewma+4*l.dev) * time.Microsecond, true
}
