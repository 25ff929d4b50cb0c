package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"kpj"
	"kpj/internal/wal"
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
	// RepairedTables counts the landmark tables recomputed incrementally
	// (0 when no index is loaded or the delta damaged nothing).
	RepairedTables int `json:"repairedTables"`
	// RepairSettled counts the nodes the repair settled, summed over the
	// recomputed tables: the machine-independent cost of the update.
	RepairSettled int `json:"repairSettled,omitempty"`
	// FullRebuild reports that damage exceeded the repair threshold and
	// every table was recomputed.
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
		w.Header().Set("Retry-After", "1")
		writeKindError(w, http.StatusServiceUnavailable, kindDraining, "draining")
		s.met.observeShed()
		return
	}
	var d kpj.Delta
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxUpdateBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		// MaxBytesReader failures surface through the decoder; unwrap them
		// so an oversized body is a 413, not a misleading "bad JSON" 400.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeKindError(w, http.StatusRequestEntityTooLarge, kindTooLarge,
				"delta exceeds %d bytes", s.maxUpdateBytes)
		} else {
			writeKindError(w, http.StatusBadRequest, kindBadRequest, "bad JSON: %v", err)
		}
		s.met.observeUpdate(false)
		return
	}
	if d.Empty() {
		writeKindError(w, http.StatusBadRequest, kindBadRequest, "empty delta")
		s.met.observeUpdate(false)
		return
	}
	expectEpoch, expectFP, fenced, err := parseFence(r)
	if err != nil {
		writeKindError(w, http.StatusBadRequest, kindBadRequest, "%v", err)
		s.met.observeUpdate(false)
		return
	}
	if s.updateBr.degraded() {
		// Half-open: one update at a time probes the apply path; the rest
		// are shed so a persistent fault cannot stack mutation attempts.
		if !s.updateProbe.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", "1")
			writeKindError(w, http.StatusServiceUnavailable, kindDraining, "update breaker open")
			s.met.observeShed()
			return
		}
		defer s.updateProbe.Store(false)
	}

	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	ep := s.snapshot()
	if fenced {
		// Epoch fencing: the caller preconditions this delta on the exact
		// (epoch, fingerprint) it expects to extend. A mismatch means the
		// caller is stale (replaying an already-applied delta) or this
		// replica has diverged; either way the delta must not apply. 409
		// plus the current generation in the headers lets the router decide
		// between skip (replica ahead) and resync (replica behind/diverged).
		if ep.seq != expectEpoch || (expectFP != "" && fingerprint(ep) != expectFP) {
			setEpochHeaders(w, ep)
			writeKindError(w, http.StatusConflict, kindEpochConflict,
				"fence mismatch: at epoch %d fingerprint %s, caller expects epoch %d fingerprint %s",
				ep.seq, fingerprint(ep), expectEpoch, expectFP)
			s.met.observeUpdate(false)
			return
		}
	}
	next, resp, app, err := s.applyDelta(ep, &d)
	if err != nil {
		if errors.Is(err, kpj.ErrBadDelta) {
			// A client mistake, not an apply-path fault: the breaker only
			// counts internal failures.
			writeKindError(w, http.StatusBadRequest, kindBadRequest, "%v", err)
			s.met.observeUpdate(false)
			return
		}
		if s.updateBr.record(false) {
			s.logf("server: update circuit breaker opened after: %v", err)
			s.met.observeTrip()
		}
		writeKindError(w, http.StatusInternalServerError, kindInternal,
			"update failed, epoch %d kept: %v", ep.seq, err)
		s.met.observeUpdate(false)
		return
	}
	if s.wal != nil {
		// Durable before observable: the record (epoch, fingerprint, graph
		// shape, delta) is fsynced to the log before the epoch pointer
		// moves. A crash after this append recovers exactly to next; a
		// crash before it recovers to ep — the caller saw no 200 either way.
		rec := wal.Record{Epoch: next.seq, Nodes: resp.Nodes, Edges: resp.Edges, Delta: &d}
		if next.ix != nil {
			rec.Fingerprint = next.ix.Fingerprint()
		}
		if err := s.wal.Append(rec); err != nil {
			if s.updateBr.record(false) {
				s.logf("server: update circuit breaker opened after: %v", err)
				s.met.observeTrip()
			}
			writeKindError(w, http.StatusInternalServerError, kindWAL,
				"wal append failed, epoch %d kept: %v", ep.seq, err)
			s.met.observeUpdate(false)
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
	setEpochHeaders(w, next)
	writeJSON(w, http.StatusOK, resp)
	s.met.observeUpdate(true)
	s.logf("server: epoch %d -> %d: %d delta ops, %d tables repaired (%d nodes settled), cache %d migrated / %d dropped",
		ep.seq, next.seq, d.Ops(), resp.RepairedTables, resp.RepairSettled, resp.CacheMigrated, resp.CacheDropped)
}

// parseFence reads the optional X-Kpj-Expect-Epoch / X-Kpj-Expect-Fingerprint
// precondition headers. Absent epoch header means unfenced (direct
// operator updates keep working); a fingerprint expectation without an
// epoch is rejected as malformed.
func parseFence(r *http.Request) (epoch uint64, fp string, fenced bool, err error) {
	eh := r.Header.Get("X-Kpj-Expect-Epoch")
	fp = r.Header.Get("X-Kpj-Expect-Fingerprint")
	if eh == "" {
		if fp != "" {
			return 0, "", false, fmt.Errorf("X-Kpj-Expect-Fingerprint requires X-Kpj-Expect-Epoch")
		}
		return 0, "", false, nil
	}
	epoch, perr := strconv.ParseUint(eh, 10, 64)
	if perr != nil {
		return 0, "", false, fmt.Errorf("bad X-Kpj-Expect-Epoch %q", eh)
	}
	return epoch, fp, true, nil
}

// fingerprint renders an epoch's index fingerprint as the wire form used
// in headers and fences ("" when the epoch has no index).
func fingerprint(ep *epochState) string {
	if ep.ix == nil {
		return ""
	}
	return fmt.Sprintf("%016x", ep.ix.Fingerprint())
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
		resp.FullRebuild = app.Stats.FullRebuild
		resp.Fingerprint = fmt.Sprintf("%016x", app.Index.Fingerprint())
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
