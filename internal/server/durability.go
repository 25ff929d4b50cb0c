package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"kpj"
	"kpj/internal/wal"
	"kpj/internal/wire"
)

// This file is the server's durability layer: the write-ahead log that
// makes every published epoch survive a crash, the recovery path that
// replays it on startup, and the snapshot/resync endpoints the routing
// tier uses to bring a diverged replica back onto the fleet's chain.
//
// Invariant: with a WAL configured, every epoch transition is durable
// before it is observable. Delta-driven transitions (POST /update)
// append a log record and fsync before the epoch pointer moves;
// snapshot-driven transitions (POST /resync, index reload/swap) write a
// checkpoint first. A crash at any instant therefore recovers to an
// epoch the outside world has already seen — never past it, never to a
// torn state.

// WithWAL attaches an opened write-ahead log. Every accepted update is
// appended (and fsynced) before its epoch is published, and every
// checkpointEvery-th epoch a flat snapshot is checkpointed and the log
// truncated behind it (checkpointEvery <= 0 disables periodic
// checkpoints; the log then grows until the next snapshot-driven
// transition). The server starts in recovering state: /readyz answers
// 503 until Recover has replayed the log suffix.
func WithWAL(l *wal.Log, checkpointEvery int) Option {
	return func(s *Server) {
		s.wal = l
		s.checkpointEvery = checkpointEvery
		s.recovering.Store(true)
	}
}

// WithMaxUpdateBytes caps the POST /update request body (default
// wire.MaxBodyBytes).
// Oversized bodies are rejected with 413 and kind "too-large".
func WithMaxUpdateBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxUpdateBytes = n
		}
	}
}

// Recover replays the WAL suffix onto the state the server was
// constructed with (the checkpoint snapshot, or the -flat file's graph
// and index when no checkpoint exists), asserting that every replayed
// epoch reproduces the fingerprint and graph shape that were durably
// recorded when it was first applied. On success the server leaves recovering
// state and /readyz starts answering ready; on any divergence it stays
// down — a replica that cannot prove its chain must not serve.
//
// Serving may already be up while Recover runs: /readyz reports
// progress ("recovering (i/n records)") so operators and routers can
// watch replay advance.
func (s *Server) Recover(rec *wal.Recovery) error {
	if s.wal == nil {
		return fmt.Errorf("server: Recover without WithWAL")
	}
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	s.recoverTotal.Store(int64(len(rec.Records)))

	// Re-anchor the epoch sequence at the checkpoint: the graph and index
	// passed to New are the checkpoint's state, but New numbered them 0.
	cur := s.snapshot()
	s.epoch.Store(&epochState{g: cur.g, ix: cur.ix, seq: rec.CheckpointEpoch})

	for i := range rec.Records {
		r := &rec.Records[i]
		ep := s.snapshot()
		next, _, app, err := s.applyDelta(ep, r.Delta)
		if err != nil {
			return fmt.Errorf("server: recovery replay epoch %d: %w", r.Epoch, err)
		}
		if next.seq != r.Epoch {
			return fmt.Errorf("server: recovery replay produced epoch %d, log says %d", next.seq, r.Epoch)
		}
		if next.ix != nil && next.ix.Fingerprint() != r.Fingerprint {
			return fmt.Errorf("server: recovery divergence at epoch %d: replayed fingerprint %016x, log recorded %016x",
				r.Epoch, next.ix.Fingerprint(), r.Fingerprint)
		}
		if next.g.NumNodes() != r.Nodes || next.g.NumEdges() != r.Edges {
			return fmt.Errorf("server: recovery divergence at epoch %d: replayed graph %d/%d nodes/edges, log recorded %d/%d",
				r.Epoch, next.g.NumNodes(), next.g.NumEdges(), r.Nodes, r.Edges)
		}
		s.epoch.Store(next)
		if app != nil {
			app.RekeyBounds(s.cache)
		}
		s.recovered.Store(int64(i + 1))
	}
	s.recovering.Store(false)
	ep := s.snapshot()
	s.logf("server: recovered to epoch %d (%d records replayed on checkpoint epoch %d, %d torn bytes dropped)",
		ep.seq, len(rec.Records), rec.CheckpointEpoch, rec.TruncatedBytes)
	return nil
}

// checkpointLocked snapshots ep into the WAL (flat format) and truncates
// the log behind it. Called with updateMu held and s.wal non-nil.
func (s *Server) checkpointLocked(ep *epochState) error {
	return s.wal.Checkpoint(ep.seq, func(w io.Writer) error {
		_, err := kpj.WriteFlat(w, ep.g, ep.ix)
		return err
	})
}

// maybeCheckpointLocked runs the periodic checkpoint policy after a
// published update. A failed periodic checkpoint is logged, not fatal:
// the previous checkpoint plus the (longer) log suffix still recover
// this epoch exactly.
func (s *Server) maybeCheckpointLocked(ep *epochState) {
	if s.wal == nil || s.checkpointEvery <= 0 || ep.seq%uint64(s.checkpointEvery) != 0 {
		return
	}
	if err := s.checkpointLocked(ep); err != nil {
		s.logf("server: periodic checkpoint at epoch %d failed (log retained): %v", ep.seq, err)
	}
}

// maxResyncBytes bounds a POST /resync snapshot body: snapshots are
// whole-index transfers, far larger than deltas, but still bounded so a
// rogue peer cannot exhaust memory.
const maxResyncBytes = 1 << 30

// handleSnapshot streams the current epoch as a flat snapshot — the
// checkpoint half of a router-driven resync. The epoch pair is immutable
// so the stream needs no lock; X-Kpj-Epoch and X-Kpj-Fingerprint name
// the generation being shipped.
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	ep := s.snapshot()
	w.Header().Set("Content-Type", "application/octet-stream")
	ep.gen().SetHeader(w.Header())
	if _, err := kpj.WriteFlat(w, ep.g, ep.ix); err != nil {
		// Headers are out; all we can do is log and cut the stream short,
		// which the receiver detects as a truncated flat payload.
		s.logf("server: snapshot stream failed: %v", err)
	}
}

// handleResync replaces the serving state with a flat snapshot shipped
// by the routing tier — the readmission path for a replica that
// diverged or fell too far behind to catch up record by record. The
// snapshot's epoch (X-Kpj-Epoch header) must be ahead of the current
// one: epoch fencing holds even here, a resync can never rewind a
// replica. With a WAL configured the snapshot is checkpointed durably
// before the new epoch is published.
func (s *Server) handleResync(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		wire.WriteError(w, http.StatusServiceUnavailable, wire.KindDraining, "draining")
		s.met.shed.Inc()
		return
	}
	epochHdr := r.Header.Get(wire.HeaderEpoch)
	snapEpoch, err := strconv.ParseUint(epochHdr, 10, 64)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.KindBadRequest, "bad or missing %s header %q", wire.HeaderEpoch, epochHdr)
		return
	}
	body, ok := wire.ReadBody(w, r, maxResyncBytes)
	if !ok {
		return
	}
	ng, nix, err := kpj.ReadFlat(bytes.NewReader(body))
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.KindBadRequest, "bad snapshot: %v", err)
		return
	}

	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	cur := s.snapshot()
	if snapEpoch <= cur.seq {
		cur.gen().SetHeader(w.Header())
		wire.WriteError(w, http.StatusConflict, wire.KindEpochConflict,
			"snapshot epoch %d does not advance current epoch %d", snapEpoch, cur.seq)
		return
	}
	next := &epochState{g: ng, ix: nix, seq: snapEpoch}
	if s.wal != nil {
		// Durable-before-observable: persist the snapshot as a checkpoint
		// (re-using the received bytes verbatim) before publishing.
		if err := s.wal.Checkpoint(snapEpoch, func(w io.Writer) error {
			_, werr := w.Write(body)
			return werr
		}); err != nil {
			wire.WriteError(w, http.StatusInternalServerError, wire.KindWAL,
				"checkpoint failed, epoch %d kept: %v", cur.seq, err)
			s.met.updateErr.Inc()
			return
		}
	}
	s.epoch.Store(next)
	s.met.resyncs.Inc()
	gen := next.gen()
	resp := map[string]any{"epoch": next.seq, "nodes": ng.NumNodes(), "edges": ng.NumEdges()}
	if fp := gen.Fingerprint(); fp != "" {
		resp["fingerprint"] = fp
	}
	gen.SetHeader(w.Header())
	wire.WriteJSON(w, http.StatusOK, resp)
	s.logf("server: resynced to epoch %d (%d nodes / %d edges) from snapshot", next.seq, ng.NumNodes(), ng.NumEdges())
}
