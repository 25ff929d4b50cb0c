package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"kpj"
	"kpj/internal/wal"
	"kpj/internal/wire"
)

// This file is the live-update endpoint: POST /update accepts a
// kpj.Delta as JSON, applies it to the serving epoch — incrementally
// repairing the landmark index when one is loaded — and atomically
// publishes the new (graph, index) generation. In-flight queries finish
// on the epoch they snapshotted; a failed or invalid delta leaves the
// serving epoch untouched. Cached per-category bound tables are migrated
// across the epoch bump: only the categories the delta actually touched
// are invalidated, the rest of the LRU survives warm.
//
// Updates are serialized by the epoch mutex, shed with 503 while the
// server drains, and guarded by their own circuit breaker (WithBreaker):
// after `threshold` consecutive internal apply failures the endpoint
// admits one probe update at a time and sheds concurrent ones, until
// `probes` consecutive successes close the breaker again.

// UpdateResponse is the POST /update response body.
type UpdateResponse struct {
	// Epoch is the sequence number of the newly published generation.
	Epoch uint64 `json:"epoch"`
	// Fingerprint identifies the new index generation (omitted when the
	// server runs unindexed).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Nodes and Edges describe the new graph.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// RepairedTables counts the landmark tables the delta damaged, each
	// repaired incrementally (0 when no index is loaded or the delta
	// damaged nothing).
	RepairedTables int `json:"repairedTables"`
	// RepairSettled counts the nodes the repair settled, summed over the
	// repaired tables: the machine-independent cost of the update.
	RepairSettled int `json:"repairSettled,omitempty"`
	// FullRebuild reports that the delta damaged every landmark table and
	// all 2·L were repaired; RepairSettled, not this flag, says what
	// that cost.
	FullRebuild bool `json:"fullRebuild,omitempty"`
	// CacheMigrated and CacheDropped count bound-table cache entries that
	// survived the epoch bump versus ones invalidated by it.
	CacheMigrated int   `json:"cacheMigrated"`
	CacheDropped  int   `json:"cacheDropped"`
	Micros        int64 `json:"micros"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.draining.Load() {
		wire.WriteError(w, http.StatusServiceUnavailable, wire.KindDraining, "draining")
		s.met.shed.Inc()
		return
	}
	body, ok := wire.ReadBody(w, r, s.maxUpdateBytes)
	if !ok {
		s.met.updateErr.Inc()
		return
	}
	var d kpj.Delta
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.KindBadRequest, "bad JSON: %v", err)
		s.met.updateErr.Inc()
		return
	}
	if d.Empty() {
		wire.WriteError(w, http.StatusBadRequest, wire.KindBadRequest, "empty delta")
		s.met.updateErr.Inc()
		return
	}
	fence, fenced, err := wire.ParseFence(r.Header)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.KindBadRequest, "%v", err)
		s.met.updateErr.Inc()
		return
	}
	if s.updateBr.degraded() {
		// Half-open: one update at a time probes the apply path; the rest
		// are shed so a persistent fault cannot stack mutation attempts.
		if !s.updateProbe.CompareAndSwap(false, true) {
			wire.WriteError(w, http.StatusServiceUnavailable, wire.KindDraining, "update breaker open")
			s.met.shed.Inc()
			return
		}
		defer s.updateProbe.Store(false)
	}

	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	ep := s.snapshot()
	if cur := ep.gen(); fenced && !cur.Satisfies(fence) {
		// Epoch fencing: the caller preconditions this delta on the exact
		// (epoch, fingerprint) it expects to extend. A mismatch means the
		// caller is stale (replaying an already-applied delta) or this
		// replica has diverged; either way the delta must not apply. 409
		// plus the current generation in the headers lets the router decide
		// between skip (replica ahead) and resync (replica behind/diverged).
		cur.SetHeader(w.Header())
		wire.WriteError(w, http.StatusConflict, wire.KindEpochConflict,
			"fence mismatch: at %s, caller expects %s", cur, fence)
		s.met.updateErr.Inc()
		return
	}
	next, resp, app, err := s.applyDelta(ep, &d)
	if err != nil {
		if errors.Is(err, kpj.ErrBadDelta) {
			// A client mistake, not an apply-path fault: the breaker only
			// counts internal failures.
			wire.WriteError(w, http.StatusBadRequest, wire.KindBadRequest, "%v", err)
			s.met.updateErr.Inc()
			return
		}
		s.recordUpdateFault(err)
		wire.WriteError(w, http.StatusInternalServerError, wire.KindInternal,
			"update failed, epoch %d kept: %v", ep.seq, err)
		return
	}
	if s.wal != nil {
		// Durable before observable: the record (epoch, fingerprint, graph
		// shape, delta) is fsynced to the log before the epoch pointer
		// moves. A crash after this append recovers exactly to next; a
		// crash before it recovers to ep — the caller saw no 200 either way.
		rec := wal.Record{Epoch: next.seq, Nodes: resp.Nodes, Edges: resp.Edges, Delta: &d,
			Fingerprint: next.gen().FP}
		if err := s.wal.Append(rec); err != nil {
			s.recordUpdateFault(err)
			wire.WriteError(w, http.StatusInternalServerError, wire.KindWAL,
				"wal append failed, epoch %d kept: %v", ep.seq, err)
			return
		}
	}
	s.epoch.Store(next)
	if app != nil {
		resp.CacheMigrated, resp.CacheDropped = app.RekeyBounds(s.cache)
	}
	s.maybeCheckpointLocked(next)
	s.updateBr.record(true)
	resp.Micros = time.Since(start).Microseconds()
	next.gen().SetHeader(w.Header())
	wire.WriteJSON(w, http.StatusOK, resp)
	s.met.updates.Inc()
	s.logf("server: epoch %d -> %d: %d delta ops, %d tables repaired (%d nodes settled), cache %d migrated / %d dropped",
		ep.seq, next.seq, d.Ops(), resp.RepairedTables, resp.RepairSettled, resp.CacheMigrated, resp.CacheDropped)
}

// recordUpdateFault counts an internal update failure against the update
// breaker and the error counter.
func (s *Server) recordUpdateFault(err error) {
	if s.updateBr.record(false) {
		s.logf("server: update circuit breaker opened after: %v", err)
		s.met.trips.Inc()
	}
	s.met.updateErr.Inc()
}

// applyDelta derives the successor epoch for d without publishing it or
// touching any shared state: the bound-table cache still serves ep until
// the caller, having made the successor durable and published it, calls
// RekeyBounds on the returned Applied (nil on an unindexed server). A
// cache rekeyed any earlier would, when the publish then fails, hold
// tables bound to an index that never served. Called with the update
// mutex held; on error the caller keeps the current epoch.
func (s *Server) applyDelta(ep *epochState, d *kpj.Delta) (*epochState, *UpdateResponse, *kpj.Applied, error) {
	resp := &UpdateResponse{Epoch: ep.seq + 1}
	var next *epochState
	var app *kpj.Applied
	if ep.ix != nil {
		var err error
		if app, err = ep.ix.Apply(d); err != nil {
			return nil, nil, nil, err
		}
		next = &epochState{g: app.Graph, ix: app.Index, seq: ep.seq + 1}
		resp.RepairedTables = app.Stats.Repaired()
		resp.RepairSettled = app.Stats.Settled
		resp.FullRebuild = app.Stats.Landmarks > 0 && app.Stats.Repaired() == 2*app.Stats.Landmarks
		resp.Fingerprint = next.gen().Fingerprint()
	} else {
		ng, err := ep.g.WithDelta(d)
		if err != nil {
			return nil, nil, nil, err
		}
		next = &epochState{g: ng, seq: ep.seq + 1}
	}
	resp.Nodes = next.g.NumNodes()
	resp.Edges = next.g.NumEdges()
	return next, resp, app, nil
}

// Epoch reports the current serving generation's sequence number.
func (s *Server) Epoch() uint64 { return s.snapshot().seq }
