package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Interruption errors. Queries stopped by a Bound return the paths found
// so far together with an error wrapping one of these sentinels, so
// callers can distinguish graceful degradation from failure with
// errors.Is.
var (
	// ErrCanceled reports that the query's context was canceled (or its
	// deadline passed) before all k paths were found.
	ErrCanceled = errors.New("core: query canceled")
	// ErrBudgetExceeded reports that the query consumed its work budget
	// before all k paths were found.
	ErrBudgetExceeded = errors.New("core: work budget exceeded")
)

// pollEvery is the number of work units between context polls. Budget
// accounting is a plain integer decrement per unit; the (comparatively
// expensive) channel poll happens only once per this many units, keeping
// the hot search loops branch-cheap.
const pollEvery = 256

// shareChunk is the allowance a shared Bound draws from the common budget
// pool per refill. Large enough that the atomic draw is amortized over
// hundreds of work units, small enough that a worker cannot strand a
// meaningful fraction of the budget in its local allowance.
const shareChunk = 512

// Stop causes recorded in boundShare.cause.
const (
	causeNone int32 = iota
	causeCanceled
	causeBudget
	causeInjected
)

// boundShare is the cross-worker state of a forked Bound: the remaining
// budget pool and the first stop cause. Once any sharer trips, every other
// sharer observes the cause at its next poll and stops within pollEvery
// units — the atomic drain that keeps parallel truncation prompt.
type boundShare struct {
	ctx       context.Context
	capped    bool
	remaining atomic.Int64
	cause     atomic.Int32
	// injected carries the error behind causeInjected. It is stored
	// before the cause is published, so a sharer that observes
	// causeInjected always finds it set.
	injected atomic.Pointer[error]
}

// tripped converts the recorded stop cause into the sticky error.
func (s *boundShare) tripped() error {
	switch s.cause.Load() {
	case causeCanceled:
		return fmt.Errorf("%w: %v", ErrCanceled, context.Cause(s.ctx))
	case causeBudget:
		return ErrBudgetExceeded
	case causeInjected:
		if ep := s.injected.Load(); ep != nil {
			return *ep
		}
	}
	return nil
}

// Bound tracks the interruption state of one query: an optional
// context.Context for cancellation/deadlines and an optional cap on total
// work, measured in heap pops plus successful edge relaxations (the same
// units Stats tracks as NodesPopped and EdgesRelaxed). A nil *Bound is
// valid and never trips, so unbounded queries pay only a nil check.
//
// A Bound is single-use and not safe for concurrent use; prepare
// materializes a fresh one per query. Share splits one bound into several,
// each single-goroutine, that draw work from a common budget pool and stop
// together — the parallel engine gives one to each worker.
type Bound struct {
	ctx    context.Context
	budget int64 // local allowance; math.MaxInt64 when uncapped and unshared
	poll   int64 // countdown to the next context poll
	err    error // sticky: first violation wins
	share  *boundShare
}

// NewBound builds a Bound from a context and a work budget. It returns
// nil — the no-op bound — when ctx is nil and budget is non-positive.
func NewBound(ctx context.Context, budget int64) *Bound {
	if ctx == nil && budget <= 0 {
		return nil
	}
	// poll starts at 1 so the very first Step polls the context — an
	// already-expired deadline trips before any real work — and then only
	// every pollEvery units.
	b := &Bound{ctx: ctx, budget: math.MaxInt64, poll: 1}
	if budget > 0 {
		b.budget = budget
	}
	return b
}

// Share converts b into a shared bound and returns n siblings for worker
// goroutines. The remaining budget moves into a common pool that b and the
// siblings draw from in shareChunk allowances, so the total work across
// all sharers still respects the original cap; when any sharer trips, the
// rest observe it within pollEvery units. Each returned bound (and b
// itself) remains single-goroutine. A nil b yields nil siblings.
func (b *Bound) Share(n int) []*Bound {
	if b == nil {
		return make([]*Bound, n)
	}
	if b.share == nil {
		s := &boundShare{ctx: b.ctx, capped: b.budget < math.MaxInt64/2}
		s.remaining.Store(b.budget)
		b.share = s
		b.budget = 0 // force the first Step through the pool
	}
	out := make([]*Bound, n)
	for i := range out {
		out[i] = &Bound{ctx: b.ctx, poll: 1, share: b.share}
	}
	return out
}

// release returns b's unspent local allowance to the shared pool. Called
// when a worker retires its bound so the budget it drew but never used
// stays available to the other sharers.
func (b *Bound) release() {
	if b != nil && b.share != nil && b.share.capped && b.budget > 0 {
		b.share.remaining.Add(b.budget)
		b.budget = 0
	}
}

// inject records an externally raised failure — an injected fault-point
// error or a recovered worker panic — as the bound's sticky error, so it
// flows through the same truncation machinery as a deadline or budget
// trip: every loop observing this bound (or a sibling sharer) stops
// within pollEvery units and the query returns its partial-result
// prefix. The first injected error wins; later ones are dropped. Nil-safe
// on both receiver and error.
func (b *Bound) inject(err error) {
	if b == nil || err == nil {
		return
	}
	if b.err == nil {
		b.err = err
	}
	if b.share != nil {
		b.share.injected.CompareAndSwap(nil, &err)
		b.share.cause.CompareAndSwap(causeNone, causeInjected)
	}
}

// newSentinelBound returns a Bound that never trips on its own — no
// context, effectively unlimited budget — but can carry injected errors.
// prepare substitutes it for the nil bound while fault injection is
// enabled, so unbounded queries still have an interruption channel.
func newSentinelBound() *Bound {
	return &Bound{budget: math.MaxInt64, poll: 1}
}

// Err returns the sticky interruption error, or nil while the query may
// keep running. It never polls the context itself; Step does. For a shared
// bound it also reports a trip first observed by a sibling sharer.
func (b *Bound) Err() error {
	if b == nil {
		return nil
	}
	if b.err == nil && b.share != nil {
		b.err = b.share.tripped()
	}
	return b.err
}

// Step consumes one unit of work (a heap pop) and returns the
// interruption error if the query must stop. The budget is checked on
// every step; the context is polled every pollEvery units. The error is
// sticky: once tripped, every later Step returns it immediately.
func (b *Bound) Step() error {
	if b == nil {
		return nil
	}
	if b.err != nil {
		return b.err
	}
	b.budget--
	if b.budget < 0 {
		if err := b.overdraft(); err != nil {
			b.err = err
			return b.err
		}
	}
	b.poll--
	if b.poll <= 0 {
		b.poll = pollEvery
		if b.share != nil {
			if err := b.share.tripped(); err != nil {
				b.err = err
				return b.err
			}
		}
		if b.ctx != nil {
			select {
			case <-b.ctx.Done():
				b.err = fmt.Errorf("%w: %v", ErrCanceled, context.Cause(b.ctx))
				if b.share != nil {
					b.share.cause.CompareAndSwap(causeNone, causeCanceled)
				}
				return b.err
			default:
			}
		}
	}
	return nil
}

// overdraft refills the local allowance from the shared pool after the
// budget went negative. Unshared bounds are simply exhausted. A failed
// draw records the stop cause so sibling sharers drain too.
func (b *Bound) overdraft() error {
	if b.share == nil {
		return ErrBudgetExceeded
	}
	if err := b.share.tripped(); err != nil {
		return err
	}
	need := -b.budget + shareChunk // cover the deficit plus one chunk
	if !b.share.capped {
		b.budget += need
		return nil
	}
	granted := need
	if after := b.share.remaining.Add(-need); after < 0 {
		granted += after // the pool held less than requested
	}
	b.budget += granted
	if b.budget < 0 {
		b.share.cause.CompareAndSwap(causeNone, causeBudget)
		return ErrBudgetExceeded
	}
	return nil
}

// Work consumes n extra units (edge relaxations) without polling the
// context. An overdraft is detected by the next Step.
func (b *Bound) Work(n int64) {
	if b != nil {
		b.budget -= n
	}
}
