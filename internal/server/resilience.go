package server

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"kpj"
	"kpj/internal/fault"
)

// This file is the server's failure-handling layer: a per-algorithm
// circuit breaker that switches the process into a degraded execution
// profile instead of returning a run of 500s, and atomic index hot-reload
// so an operator can swap a rebuilt landmark index (a fresh kpjindex
// output for the same graph) into a live process (SIGHUP in kpjserver)
// without dropping requests.
//
// The degradation ladder, from healthiest to most conservative:
//
//  1. normal: shared bounds cache.
//  2. degraded (breaker open): bounds cache bypassed, fresh per-request
//     stats/spans. Answers stay exact — a cached bound table equals a
//     rebuilt one — only latency suffers. Responses carry
//     X-Kpj-Degraded: 1.
//  3. truncated: independent of the breaker, a query over deadline or
//     budget returns its prefix with "truncated": true (HTTP 200).
//
// The breaker trips after `threshold` consecutive faulted queries of one
// algorithm (internal errors or injected faults — truncation by deadline
// or budget is the bound doing its job and never counts), and closes
// again after `probes` consecutive clean degraded queries.

// breaker is a consecutive-failure circuit breaker for one algorithm.
// A nil *breaker (breakers disabled) is always closed and records nothing.
type breaker struct {
	threshold int // consecutive faulted queries that open it
	probes    int // consecutive clean degraded queries that close it

	mu    sync.Mutex
	fails int
	oks   int
	open  bool
}

// degraded reports whether requests should run the degraded profile.
func (b *breaker) degraded() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// record folds one query outcome in; it returns true exactly when this
// outcome opened the breaker (the trip edge, for logging and metrics).
func (b *breaker) record(ok bool) (tripped bool) {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !ok {
		b.oks = 0
		b.fails++
		if !b.open && b.fails >= b.threshold {
			b.open = true
			return true
		}
		return false
	}
	if b.open {
		b.oks++
		if b.oks >= b.probes {
			b.open, b.fails, b.oks = false, 0, 0
		}
	} else {
		b.fails = 0
	}
	return false
}

// state renders the breaker for /healthz.
func (b *breaker) state() string {
	if b.degraded() {
		return "open"
	}
	return "closed"
}

// WithBreaker enables the per-algorithm circuit breaker: `threshold`
// consecutive faulted queries (internal errors — not truncation, not
// client errors) switch that algorithm into the degraded profile, and
// `probes` consecutive clean degraded queries switch it back (probes <= 0
// means 1). threshold <= 0 leaves breakers disabled (the default).
func WithBreaker(threshold, probes int) Option {
	return func(s *Server) {
		s.breakerThreshold = threshold
		if probes <= 0 {
			probes = 1
		}
		s.breakerProbes = probes
	}
}

// index returns the current epoch's index (possibly nil). Request
// handlers do not use it — they snapshot the whole epoch once — it
// exists for readiness checks and tests.
func (s *Server) index() *kpj.Index { return s.snapshot().ix }

// SwapIndex publishes a new epoch carrying the current graph and the
// given index. In-flight requests finish on the snapshot they loaded;
// subsequent requests use ix. The bounds cache needs no flush: it is
// keyed by index fingerprint, so entries of the old index simply stop
// being hit and age out. With a WAL configured the swap is checkpointed
// before publication; if the checkpoint fails the swap is abandoned
// (old epoch kept) and logged.
func (s *Server) SwapIndex(ix *kpj.Index) {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	if err := s.swapIndexLocked(ix); err != nil {
		s.logf("server: index swap not published: %v", err)
	}
}

func (s *Server) swapIndexLocked(ix *kpj.Index) error {
	ep := s.snapshot()
	next := &epochState{g: ep.g, ix: ix, seq: ep.seq + 1}
	if s.wal != nil {
		// A swap is a snapshot-driven transition: the new generation is not
		// derivable from the logged delta chain, so it must be durably
		// checkpointed before it becomes observable. Checkpoint failure
		// keeps the old epoch serving.
		if err := s.checkpointLocked(next); err != nil {
			return fmt.Errorf("server: checkpoint for index swap at epoch %d: %w", next.seq, err)
		}
	}
	s.epoch.Store(next)
	return nil
}

// ReloadIndex reads the flat file at path with full verification
// (checksum and adjacency validation, via kpj.ReadFlat) and swaps its
// landmark index in, rebound onto the serving graph. The file carries
// the graph its tables were computed over, and that graph must equal the
// serving one edge for edge (kpj.ErrGraphMismatch otherwise — a file
// written before a live update no longer describes this server). On any
// error — unreadable, corrupt or index-less file, different graph,
// injected load fault, failed checkpoint — the currently serving epoch
// stays in place; a reload can never leave the server worse than before
// it.
func (s *Server) ReloadIndex(path string) error {
	// The whole load-validate-swap runs under the update mutex so the
	// graph the index is validated against is the graph it gets paired
	// with — a concurrent live update cannot slip a new graph generation
	// in between.
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	err := s.reloadIndexLocked(path)
	if err != nil {
		s.met.reloadErr.Inc()
	} else {
		s.met.reloads.Inc()
	}
	return err
}

func (s *Server) reloadIndexLocked(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("server: reload index: %w", err)
	}
	defer f.Close()
	_, ix, err := kpj.ReadFlat(f)
	if err != nil {
		return fmt.Errorf("server: reload index %s: %w", path, err)
	}
	if ix == nil {
		return fmt.Errorf("server: reload index %s: file carries no landmark index", path)
	}
	if ix, err = ix.Rebind(s.snapshot().g); err != nil {
		return fmt.Errorf("server: reload index %s: %w", path, err)
	}
	return s.swapIndexLocked(ix)
}

// degrade switches one parsed request to the degraded execution profile:
// no shared bounds cache, so a fault tied to cross-request shared state
// cannot recur. Stats and spans are replaced (not reset) so a degraded
// retry reports only its own work.
func (p *queryParams) degrade() {
	p.opt.BoundsCache = nil
	if p.opt.Stats != nil {
		p.opt.Stats = &kpj.Stats{}
	}
	if p.opt.Spans != nil {
		p.opt.Spans = kpj.NewSpans()
	}
}

// execQuery runs one parsed query, converting an escaping engine panic
// into an ErrWorkerPanic error (so the breaker sees it and the handler
// answers 500, not the outer recovery's blind 500) and exposing the
// server.handler fault point.
func (s *Server) execQuery(p queryParams) (paths []kpj.Path, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			paths, err = nil, fmt.Errorf("%w: %v", kpj.ErrWorkerPanic, rec)
		}
	}()
	if ferr := fault.Hit(fault.ServerHandler); ferr != nil {
		return nil, ferr
	}
	return p.ep.g.TopKJoinSets(p.sources, p.targets, p.k, p.opt)
}

// faultedQuery classifies a query error for the breaker: true only for
// internal failures (panics, injected faults, unexpected engine errors).
// Client errors and bound-driven truncation are the system working as
// designed and must not open the breaker.
func faultedQuery(err error) bool {
	if err == nil || kpj.IsInvalidQuery(err) {
		return false
	}
	if _, ok := kpj.Truncated(err); ok {
		// Truncated prefixes are normal under deadline/budget pressure;
		// only fault-flavored truncation counts against the breaker.
		return errors.Is(err, kpj.ErrInjectedFault) || errors.Is(err, kpj.ErrWorkerPanic)
	}
	return true
}
