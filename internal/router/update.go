package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"kpj/internal/wire"
)

// This file is the router's replicated-update layer. POST /update on the
// router fans one delta to every routable replica, fenced on the fleet's
// current (epoch, fingerprint) so a replica can only apply the delta to
// exactly the generation the fleet agrees on. Replicas that fail, shed,
// conflict, or produce a divergent result are marked down on the spot
// and brought back through resync: a full snapshot transfer from a
// caught-up replica. The router holds no delta history, so a restarted
// router resyncs a lagging replica exactly as a long-running one does.
// A downed replica is readmitted only when a probe observes it at the
// fleet's exact (epoch, fingerprint) — a replica can never serve a stale
// epoch after readmission.
//
// The fleet state itself is adopted monotonically: probes and update
// acks only ever advance it (ties keep the incumbent), so a restarted
// router re-learns the fleet epoch from its replicas and a stale applier
// can never drag the fleet backwards.

// fleetSnapshot returns the generation the fleet agrees on (zero before
// the first probe or update has established one).
func (rt *Router) fleetSnapshot() wire.Gen {
	if f := rt.fleet.Load(); f != nil {
		return *f
	}
	return wire.Gen{}
}

// adoptFleet advances the fleet generation to g if g is ahead of the
// current view. Ties keep the incumbent: when two replicas disagree at
// the same epoch, the first one adopted defines the fleet and the other
// is caught as diverged by probe gating.
func (rt *Router) adoptFleet(g wire.Gen) {
	for {
		cur := rt.fleet.Load()
		if cur != nil && g.Epoch <= cur.Epoch {
			return
		}
		if rt.fleet.CompareAndSwap(cur, &g) {
			return
		}
	}
}

// updateOutcome is one replica's verdict on a fanned-out delta.
type updateOutcome struct {
	rp       *replica
	status   int
	gen      wire.Gen // replica's generation from the response headers
	applied  bool
	conflict bool
	err      error
	body     []byte
}

func (rt *Router) handleUpdate(w http.ResponseWriter, r *http.Request) {
	body, ok := wire.ReadBody(w, r, wire.MaxBodyBytes)
	if !ok {
		return
	}
	if len(bytes.TrimSpace(body)) == 0 {
		wire.WriteError(w, http.StatusBadRequest, wire.KindBadRequest, "empty body")
		return
	}
	want, fenced, err := wire.ParseFence(r.Header)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.KindBadRequest, "%v", err)
		return
	}

	// One update at a time: the fence each fan-out carries is the fleet
	// state the previous fan-out established, so updates extend one chain.
	rt.updateMu.Lock()
	defer rt.updateMu.Unlock()

	fence := rt.fleetSnapshot()
	if fenced && !fence.Satisfies(want) {
		// The caller fenced this delta on a generation the fleet is not at:
		// answer as a replica would.
		fence.SetHeader(w.Header())
		wire.WriteError(w, http.StatusConflict, wire.KindEpochConflict,
			"fence mismatch: fleet at %s, caller expects %s", fence, want)
		rt.met.updateErrs.Inc()
		return
	}
	var targets []*replica
	for _, rp := range rt.reps {
		if rp.State() != stateDown {
			targets = append(targets, rp)
		}
	}
	if len(targets) == 0 {
		wire.WriteError(w, http.StatusServiceUnavailable, wire.KindUnavailable, "no routable replicas")
		rt.met.updateErrs.Inc()
		return
	}

	results := make(chan updateOutcome, len(targets))
	for _, rp := range targets {
		rp := rp
		go func() {
			defer func() {
				if p := recover(); p != nil {
					results <- updateOutcome{rp: rp, err: fmt.Errorf("update panic: %v", p)}
				}
			}()
			results <- rt.fanoutOne(r.Context(), rp, body, fence)
		}()
	}
	outs := make([]updateOutcome, 0, len(targets))
	for range targets {
		outs = append(outs, <-results)
	}

	// The first applier defines the canonical successor generation; every
	// replica applied the same delta under the same fence, so a different
	// answer is divergence, not a race.
	var canonical *updateOutcome
	for i := range outs {
		if outs[i].applied {
			canonical = &outs[i]
			break
		}
	}
	if canonical == nil {
		// Nothing applied. If a conflict shows the fleet is ahead of our
		// fence (e.g. this router restarted with stale state), adopt it and
		// tell the caller to retry against the new generation.
		rt.met.updateErrs.Inc()
		for _, o := range outs {
			if o.conflict && o.gen.Epoch > fence.Epoch {
				rt.adoptFleet(o.gen)
				o.gen.SetHeader(w.Header())
				wire.WriteError(w, http.StatusConflict, wire.KindEpochConflict,
					"fleet advanced to epoch %d; retry", o.gen.Epoch)
				return
			}
		}
		for _, o := range outs {
			if o.err == nil && o.status >= 400 && o.status < 500 && !o.conflict {
				// A client error (bad JSON, a bad delta): the delta is bad
				// at every replica, so the caller hears what the replica said.
				eb := wire.ErrorBody{Error: string(o.body), Kind: wire.KindBadRequest}
				_ = json.Unmarshal(o.body, &eb)
				wire.WriteError(w, o.status, eb.Kind, "%s", eb.Error)
				return
			}
		}
		last := outs[len(outs)-1]
		wire.WriteError(w, http.StatusServiceUnavailable, wire.KindUnavailable,
			"no replica applied the update: status %d err %v", last.status, last.err)
		return
	}
	next := canonical.gen
	rt.adoptFleet(next)

	applied := make([]string, 0, len(outs))
	var resyncing []string
	for i := range outs {
		o := &outs[i]
		switch {
		case o.applied && o.gen == next:
			applied = append(applied, o.rp.name)
		default:
			// Failed, conflicted, or diverged: fence the replica out of the
			// serving set immediately and bring it back through resync —
			// readmission happens only once a probe sees it at the fleet
			// generation.
			reason := fmt.Errorf("update fan-out: status %d at %s (fleet %s)", o.status, o.gen, next)
			if o.err != nil {
				reason = fmt.Errorf("%v: %w", reason, o.err)
			}
			rt.setState(o.rp, stateDown, reason)
			rt.scheduleResync(o.rp)
			resyncing = append(resyncing, o.rp.name)
		}
	}

	// The fingerprint travels in the body; the header carries the epoch.
	wire.Gen{Epoch: next.Epoch}.SetHeader(w.Header())
	w.Header().Set(wire.HeaderReplica, canonical.rp.name)
	resp := map[string]any{"epoch": next.Epoch, "applied": applied}
	if fp := next.Fingerprint(); fp != "" {
		resp["fingerprint"] = fp
	}
	if len(resyncing) > 0 {
		resp["resyncing"] = resyncing
	}
	wire.WriteJSON(w, http.StatusOK, resp)
	rt.met.updates.Inc()
}

// fanoutOne delivers one delta to one replica, retrying transient
// failures (connection errors, 5xx, sheds) within the shared retry
// token budget. Deliberate answers — applied, conflict, client error —
// are final.
func (rt *Router) fanoutOne(ctx context.Context, rp *replica, body []byte, fence wire.Gen) updateOutcome {
	var out updateOutcome
	for attempt := 0; ; attempt++ {
		out = rt.postDelta(ctx, rp, body, fence)
		if out.err == nil && out.status < 500 {
			return out
		}
		if ctx.Err() != nil || attempt+1 >= rt.cfg.MaxAttempts || !rt.takeToken() {
			return out
		}
		rt.met.failovers.Inc()
	}
}

// postDelta POSTs one fenced update to rp and classifies the answer.
func (rt *Router) postDelta(ctx context.Context, rp *replica, body []byte, fence wire.Gen) updateOutcome {
	out := updateOutcome{rp: rp}
	ctx, cancel := rt.requestContext(ctx)
	defer cancel()
	h := http.Header{}
	wire.SetFence(h, fence)
	var header http.Header
	out.status, header, out.body, out.err = rt.send(ctx, rp, http.MethodPost, "/update", "", body, h, 1<<20)
	if out.err == nil {
		out.gen = wire.ReadGen(header)
		out.applied = out.status == http.StatusOK
		out.conflict = out.status == http.StatusConflict
	}
	return out
}

// scheduleResync starts one background resync of rp (no-op if one is
// already running). A failed attempt is retried by the probe loop: the
// replica stays down, every probe re-observes it stale and calls back
// here.
func (rt *Router) scheduleResync(rp *replica) {
	if rt.closed.Load() || !rp.resyncing.CompareAndSwap(false, true) {
		return
	}
	rt.resyncWG.Add(1)
	go func() {
		defer rt.resyncWG.Done()
		defer rp.resyncing.Store(false)
		if rt.resyncReplica(rt.ctx, rp) {
			rt.met.resyncs.Inc()
		} else {
			rt.met.resyncErrs.Inc()
		}
	}()
}

// resyncReplica brings a downed replica back onto the fleet chain by a
// full snapshot transfer from a caught-up peer. It only moves state —
// readmission stays with the probe loop, which flips the replica up once
// it observes the fleet (epoch, fingerprint).
func (rt *Router) resyncReplica(ctx context.Context, rp *replica) bool {
	fleet := rt.fleetSnapshot()
	if fleet == (wire.Gen{}) {
		return false
	}
	// /readyz reports where a replica's chain stands whether or not it
	// is ready: a recovering or draining replica answers too.
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	_, have, err := rt.fetchReadyz(pctx, rp)
	cancel()
	if err != nil {
		rt.logf("router: resync %s: cannot read state: %v", rp.name, err)
		return false
	}
	if have.Epoch > fleet.Epoch {
		rt.adoptFleet(have)
		return true
	}
	if have == fleet {
		return true // already caught up; next probe readmits
	}
	return rt.snapshotResync(ctx, rp, fleet)
}

// snapshotResync transfers a full flat snapshot from a caught-up peer
// onto rp. The peer must be at the fleet generation; the snapshot's own
// headers name what was actually shipped (it may be ahead if an update
// lands mid-transfer — still a valid chain state, adopted monotonically).
func (rt *Router) snapshotResync(ctx context.Context, rp *replica, fleet wire.Gen) bool {
	var source *replica
	for _, peer := range rt.reps {
		if peer != rp && peer.State() != stateDown &&
			peer.epoch.Load() == fleet.Epoch && peer.fp.Load() == fleet.FP {
			source = peer
			break
		}
	}
	if source == nil {
		rt.logf("router: resync %s: no caught-up peer at %s to snapshot from", rp.name, fleet)
		return false
	}
	ctx, cancel := rt.requestContext(ctx)
	defer cancel()
	status, header, snap, err := rt.send(ctx, source, http.MethodGet, "/snapshot", "", nil, nil, 1<<30)
	if err != nil || status != http.StatusOK {
		rt.logf("router: resync %s: snapshot from %s: status %d err %v", rp.name, source.name, status, err)
		return false
	}
	snapEpoch := header.Get(wire.HeaderEpoch)
	status, _, _, err = rt.send(ctx, rp, http.MethodPost, "/resync", "", snap, http.Header{
		"Content-Type": {"application/octet-stream"}, wire.HeaderEpoch: {snapEpoch}}, 1<<20)
	if err != nil || status != http.StatusOK {
		rt.logf("router: resync %s: resync rejected: status %d err %v", rp.name, status, err)
		return false
	}
	rt.logf("router: resync %s: snapshot transfer from %s at epoch %s complete (%d bytes)",
		rp.name, source.name, snapEpoch, len(snap))
	return true
}
