package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"kpj/internal/fault"
	"kpj/internal/wire"
)

// State is one replica's routability, driven by the probe loop.
type State int32

const (
	// StateDown: unreachable, not ready (draining), or repeatedly failing
	// probes. Routed to only as a last resort when nothing better is up.
	StateDown State = iota
	// StateDegraded: serving, but /healthz reports at least one open
	// per-algorithm circuit breaker; avoided for queries of that
	// algorithm when a breaker-closed replica exists.
	StateDegraded
	// StateHealthy: ready with every breaker closed.
	StateHealthy
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateDown:
		return "down"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// replica is one backend kpjserver as the router sees it. State and the
// probed breaker set are written only by the probe loop and the passive
// request-failure path; the hot request path reads them lock-free
// (state) or under a short mutex (breakers).
type replica struct {
	name string
	base *url.URL

	state atomic.Int32 // State; replicas start Down until the first probe
	fp    atomic.Uint64
	epoch atomic.Uint64 // last (epoch, fp) this replica reported on /readyz
	// resyncing guards the one-background-resync-at-a-time invariant
	// (update.go); probes of a stale replica retrigger rather than stack.
	resyncing atomic.Bool

	mu       sync.Mutex
	breakers map[string]bool // algorithm name -> breaker open
	fails    int             // consecutive probe/request failures

	// done closes when the probe loop has exited; Close waits on it.
	done chan struct{}
}

func (rp *replica) State() State { return State(rp.state.Load()) }

// breakerOpen reports whether the last probe saw this algorithm's
// breaker open on the replica.
func (rp *replica) breakerOpen(alg string) bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.breakers[alg]
}

func (rp *replica) breakerSnapshot() map[string]string {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	out := make(map[string]string, len(rp.breakers))
	for alg, open := range rp.breakers {
		if open {
			out[alg] = "open"
		} else {
			out[alg] = "closed"
		}
	}
	return out
}

// probeLoop re-probes rp until the router closes: every ProbeInterval
// while the replica is up, and on a jittered exponential backoff while
// it is down — a dead replica is not hammered, and the jitter keeps N
// routers from probing it in lockstep.
func (rt *Router) probeLoop(rp *replica) {
	defer close(rp.done)
	delay := time.Duration(0) // probe immediately on start
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-rt.clock.After(delay):
		}
		rt.probe(rt.ctx, rp)
		delay = rt.nextProbeDelay(rp)
	}
}

// probe runs one health-check cycle: /readyz decides up vs. down (a
// draining or index-less replica reports not-ready and stops receiving
// traffic before its listener closes), then /healthz supplies the
// per-algorithm breaker states that grade up into healthy vs. degraded.
func (rt *Router) probe(ctx context.Context, rp *replica) {
	defer func() {
		if p := recover(); p != nil {
			rt.probeFailed(rp, fmt.Errorf("probe panic: %v", p))
		}
	}()
	if err := fault.Hit(fault.RouterProbe); err != nil {
		rt.probeFailed(rp, err)
		return
	}
	// A probe never overlaps an update fan-out: mid-fan-out the replicas
	// legitimately sit at different epochs, so a probe of the fastest one
	// would advance the fleet view and the next probe of a slower one
	// would fence a healthy replica and resync it against its in-flight
	// /update; and a verdict reached before a fan-out fenced this replica
	// must not land after it. Skip the cycle rather than wait — state
	// stays as the fan-out leaves it, and the next cycle re-probes.
	if !rt.updateMu.TryRLock() {
		return
	}
	defer rt.updateMu.RUnlock()
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()

	// The fleet view is snapshotted BEFORE the readyz fetch: the replica's
	// answer is at least as fresh as this view, so comparing against it
	// cannot spuriously fence a current replica just because an update
	// this router does not serialize (another router's, or out-of-band)
	// advanced the fleet while the probe was in flight.
	fleet := rt.fleetSnapshot()
	ready, gen, err := rt.fetchReadyz(pctx, rp)
	if err != nil {
		rt.probeFailed(rp, err)
		return
	}
	rp.epoch.Store(gen.Epoch)
	rp.fp.Store(gen.FP)
	if !ready {
		rt.probeFailed(rp, fmt.Errorf("not ready"))
		return
	}
	// Epoch gating: adopt whatever is ahead of the fleet view, and refuse
	// to (re)admit a replica that is behind it or diverged at the same
	// epoch — it is fenced down and resynced instead, so a replica can
	// never serve a stale epoch after readmission. Divergence fencing
	// arms once the fleet has advanced past epoch 0: the zero generation
	// doubles as "no fleet established yet", and epoch-0 divergence
	// (replicas deployed with different indexes) is caught by the first
	// update fan-out's fingerprint fence instead.
	rt.adoptFleet(gen)
	if gen.Epoch < fleet.Epoch || (gen.Epoch == fleet.Epoch && fleet.Epoch > 0 && gen.FP != fleet.FP) {
		rt.met.probeErrs.Inc()
		rt.setState(rp, StateDown, fmt.Errorf("stale: at %s, fleet at %s", gen, fleet))
		rt.scheduleResync(rp)
		return
	}
	breakers, err := rt.fetchBreakers(pctx, rp)
	if err != nil {
		rt.probeFailed(rp, err)
		return
	}
	rt.noteSuccess(rp, gen.FP, breakers)
}

// fetchReadyz reads a replica's readiness and generation from /readyz.
func (rt *Router) fetchReadyz(ctx context.Context, rp *replica) (ready bool, gen wire.Gen, err error) {
	var body wire.Readyz
	status, err := rt.getJSON(ctx, rp, "/readyz", &body)
	if err != nil {
		return false, gen, err
	}
	return status == http.StatusOK && body.Ready, wire.Gen{Epoch: body.Epoch, FP: wire.ParseFP(body.Fingerprint)}, nil
}

func (rt *Router) fetchBreakers(ctx context.Context, rp *replica) (map[string]bool, error) {
	var body wire.Healthz
	status, err := rt.getJSON(ctx, rp, "/healthz", &body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("healthz status %d", status)
	}
	open := make(map[string]bool, len(body.Breakers))
	for alg, state := range body.Breakers {
		open[alg] = state != "closed"
	}
	return open, nil
}

func (rt *Router) getJSON(ctx context.Context, rp *replica, path string, out any) (int, error) {
	status, _, b, err := rt.send(ctx, rp, http.MethodGet, path, "", nil, nil, 1<<20)
	if err != nil {
		return 0, err
	}
	if err := json.Unmarshal(b, out); err != nil {
		return status, fmt.Errorf("%s: bad JSON: %w", path, err)
	}
	return status, nil
}

// probeFailed counts one failed probe and folds it into the state
// machine.
func (rt *Router) probeFailed(rp *replica, err error) {
	rt.met.probeErrs.Inc()
	rt.noteFailure(rp, err)
}

// noteFailure folds one failed probe (or failed proxied request) into
// the state machine: DownAfter consecutive failures mark the replica
// down. The request path shares this with the probe loop so a replica
// that dies mid-stream is sidelined immediately instead of after the
// next probe cycle; its failed attempts count as failovers, not probes.
func (rt *Router) noteFailure(rp *replica, err error) {
	rp.mu.Lock()
	rp.fails++
	down := rp.fails >= rt.cfg.DownAfter
	rp.mu.Unlock()
	if down {
		rt.setState(rp, StateDown, err)
	}
}

// noteSuccess records a clean probe: fingerprint and breaker states
// refresh, the failure streak resets, and the replica grades healthy or
// degraded by whether any breaker is open.
func (rt *Router) noteSuccess(rp *replica, fp uint64, breakers map[string]bool) {
	rp.mu.Lock()
	rp.fails = 0
	rp.breakers = breakers
	rp.mu.Unlock()
	if fp != 0 {
		rp.fp.Store(fp)
		rt.fp.Store(fp)
	}
	rt.met.probes.Inc()
	next := StateHealthy
	for _, open := range breakers {
		if open {
			next = StateDegraded
			break
		}
	}
	rt.setState(rp, next, nil)
}

// setState applies a transition, logging and counting only real edges.
func (rt *Router) setState(rp *replica, next State, cause error) {
	prev := State(rp.state.Swap(int32(next)))
	if prev == next {
		return
	}
	if cause != nil {
		rt.logf("router: replica %s %s -> %s (%v)", rp.name, prev, next, cause)
	} else {
		rt.logf("router: replica %s %s -> %s", rp.name, prev, next)
	}
	rt.met.toState[next].Inc()
}

// nextProbeDelay schedules the re-probe: the plain interval while the
// replica is up; while it is down, an exponential backoff doubling per
// consecutive failure beyond DownAfter, capped at MaxProbeBackoff, with
// up to 50% seeded jitter added so probes decorrelate.
func (rt *Router) nextProbeDelay(rp *replica) time.Duration {
	rp.mu.Lock()
	fails := rp.fails
	rp.mu.Unlock()
	if fails < rt.cfg.DownAfter {
		return rt.cfg.ProbeInterval
	}
	backoff := rt.cfg.ProbeInterval
	for i := rt.cfg.DownAfter; i < fails && backoff < rt.cfg.MaxProbeBackoff; i++ {
		backoff *= 2
	}
	if backoff > rt.cfg.MaxProbeBackoff {
		backoff = rt.cfg.MaxProbeBackoff
	}
	return backoff + rt.jitter(backoff/2)
}

// jitter draws from [0, max) using the router's seeded source, so a
// seeded test reproduces the exact probe schedule.
func (rt *Router) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	rt.rngMu.Lock()
	defer rt.rngMu.Unlock()
	return time.Duration(rt.rng.Int63n(int64(max)))
}
