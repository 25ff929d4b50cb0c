package server

import (
	"fmt"

	"kpj"
	"kpj/internal/fault"
)

// This file is the server's failure-handling layer: atomic index
// hot-reload, so an operator can swap a rebuilt landmark index (a fresh
// kpjindex output for the same graph) into a live process (SIGHUP in
// kpjserver) without dropping requests.
//
// Queries have one fallback: a query over deadline or budget returns its
// prefix with "truncated": true (HTTP 200). A query that panics or hits
// an injected fault answers a typed 500 and the next query runs normally.
// A failed update answers a typed 500 and keeps the serving epoch
// (update.go); behind a router, that 500 fences the replica down until a
// snapshot resync brings it back.

// index returns the current epoch's index (possibly nil). Request
// handlers do not use it — they snapshot the whole epoch once — it
// exists for readiness checks and tests.
func (s *Server) index() *kpj.Index { return s.snapshot().ix }

// ReloadIndex reads the flat file at path with full verification
// (checksum and adjacency validation, via kpj.OpenFlat) and swaps its
// landmark index in, rebound onto the serving graph. The file carries
// the graph its tables were computed over, and that graph must equal the
// serving one edge for edge (kpj.ErrGraphMismatch otherwise — a file
// written before a live update no longer describes this server). On any
// error — unreadable, corrupt or index-less file, different graph,
// failed checkpoint — the currently serving epoch
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
	_, ix, _, err := kpj.OpenFlat(path, false)
	if err != nil {
		return fmt.Errorf("server: reload index %s: %w", path, err)
	}
	if ix == nil {
		return fmt.Errorf("server: reload index %s: file carries no landmark index", path)
	}
	ep := s.snapshot()
	if ix, err = ix.Rebind(ep.g); err != nil {
		return fmt.Errorf("server: reload index %s: %w", path, err)
	}
	// In-flight requests finish on the snapshot they loaded; subsequent
	// requests use ix.
	next := &epochState{g: ep.g, ix: ix, seq: ep.seq + 1}
	if s.wal != nil {
		// A reload is a snapshot-driven transition: the new generation is
		// not derivable from the logged delta chain, so it must be durably
		// checkpointed before it becomes observable. Checkpoint failure
		// keeps the old epoch serving.
		if err := s.checkpointLocked(next); err != nil {
			return fmt.Errorf("server: checkpoint for index reload at epoch %d: %w", next.seq, err)
		}
	}
	s.epoch.Store(next)
	return nil
}

// execQuery runs one resolved query against ep, converting an escaping
// engine panic into an ErrWorkerPanic error (so the handler answers a
// typed 500, not the outer recovery's blind one) and exposing the
// server.handler fault point.
func (s *Server) execQuery(ep *epochState, q kpj.BatchQuery, opt *kpj.Options) (paths []kpj.Path, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			paths, err = nil, fmt.Errorf("%w: %v", kpj.ErrWorkerPanic, rec)
		}
	}()
	if ferr := fault.Hit(fault.ServerHandler); ferr != nil {
		return nil, ferr
	}
	return ep.g.TopKJoinSets(q.Sources, q.Targets, q.K, opt)
}
