package core

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// queryBound tracks the interruption state of one query: an optional
// context.Context for cancellation/deadlines and an optional cap on total
// work, measured in heap pops plus successful edge relaxations (the units
// Stats tracks as NodesPopped and EdgesRelaxed) plus one Step per
// subspace-queue pop of the engine's main loop, which Stats does not
// count. A nil *queryBound is valid and never trips, so unbounded queries
// pay only a nil check.
//
// A queryBound is single-use and not safe for concurrent use; prepare
// materializes a fresh one per query.
type queryBound struct {
	ctx    context.Context
	budget int64 // remaining work; math.MaxInt64 when uncapped
	poll   int64 // countdown to the next context poll
	err    error // sticky: first violation wins
}

// newQueryBound builds a queryBound from a context and a work budget. It
// returns nil — the no-op bound — when ctx is nil and budget is
// non-positive.
func newQueryBound(ctx context.Context, budget int64) *queryBound {
	if ctx == nil && budget <= 0 {
		return nil
	}
	// poll starts at 1 so the very first Step polls the context — an
	// already-expired deadline trips before any real work — and then only
	// every pollEvery units.
	b := &queryBound{ctx: ctx, budget: math.MaxInt64, poll: 1}
	if budget > 0 {
		b.budget = budget
	}
	return b
}

// Err returns the sticky interruption error, or nil while the query may
// keep running. It never polls the context itself; Step does.
func (b *queryBound) Err() error {
	if b == nil {
		return nil
	}
	return b.err
}

// Step consumes one unit of work (a heap pop) and returns the
// interruption error if the query must stop. The budget is checked on
// every step; the context is polled every pollEvery units. The error is
// sticky: once tripped, every later Step returns it immediately.
func (b *queryBound) Step() error {
	if b == nil {
		return nil
	}
	if b.err != nil {
		return b.err
	}
	b.budget--
	if b.budget < 0 {
		b.err = ErrBudgetExceeded
		return b.err
	}
	b.poll--
	if b.poll <= 0 {
		b.poll = pollEvery
		if b.ctx != nil {
			select {
			case <-b.ctx.Done():
				b.err = fmt.Errorf("%w: %v", ErrCanceled, context.Cause(b.ctx))
				return b.err
			default:
			}
		}
	}
	return nil
}

// Work consumes n extra units (edge relaxations) without polling the
// context. An overdraft is detected by the next Step.
func (b *queryBound) Work(n int64) {
	if b != nil {
		b.budget -= n
	}
}
