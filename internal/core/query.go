package core

import (
	"context"
	"errors"
	"fmt"

	"kpj/internal/graph"
	"kpj/internal/landmark"
	"kpj/internal/obs"
)

// Query is a resolved top-k shortest path join: find the K shortest simple
// paths from any node of Sources to any node of Targets. KSP queries have
// singleton Sources and Targets; KPJ queries a singleton Sources; GKPJ
// queries allow both to be sets (paper Sections 2, 3, 6).
type Query struct {
	Sources []graph.NodeID
	Targets []graph.NodeID
	K       int
}

// Options tunes the algorithms.
type Options struct {
	// Alpha controls how aggressively the iteratively bounding approaches
	// enlarge the testing threshold τ (paper Section 5.1). It must exceed
	// 1; the paper's default is 1.1. Ignored by the rows that resolve
	// exactly: BestFirst and the deviation baselines DA and DA-SPT.
	Alpha float64
	// Index supplies landmark lower bounds. Nil runs the "-NL" variants
	// (all landmark bounds treated as 0, Section 6).
	Index *landmark.Index
	// Workspace optionally reuses scratch state across queries on the
	// same graph. Nil allocates a fresh one.
	Workspace *Workspace
	// Stats, when non-nil, accumulates work counters for the query.
	Stats *Stats
	// Trace, when non-nil, receives one Event per engine step — the
	// EXPLAIN-style view of which subspaces were divided, bounded, and
	// pruned.
	Trace TraceFunc
	// Spans, when non-nil, records the query's phase timeline — lower
	// bound table builds, SPT construction, each bound iteration,
	// division, and candidate resolution — as obs.Span entries. Timing
	// is observational only and never feeds back into the search, so
	// the emitted path sequence stays bit-identical with or without it.
	Spans *obs.Spans
	// Context, when non-nil, makes the query cancelable: cancellation (or
	// a deadline) stops all search loops within a few hundred heap pops
	// and the query returns the paths found so far with an error wrapping
	// ErrCanceled.
	Context context.Context
	// Budget, when positive, caps the query's total work, measured in
	// heap pops plus successful edge relaxations (the units Stats tracks
	// as NodesPopped and EdgesRelaxed) plus one unit per subspace-queue
	// pop of the main loop, which Stats does not count. Exceeding it stops
	// the query with the paths found so far and an error wrapping
	// ErrBudgetExceeded.
	Budget int64
	// ReuseResults makes the returned Paths alias workspace-owned storage
	// instead of copying per path: the result is valid only until the
	// Workspace's next query. Combined with a warm Workspace (which also
	// owns the Eq. 2 tables) this makes the steady-state query path
	// allocation-free. Callers that retain paths must copy them (or leave
	// this off, the default).
	ReuseResults bool

	// bound is materialized by prepare from Context and Budget.
	bound *queryBound
}

// defaultAlpha is the paper's default τ growth factor.
const defaultAlpha = 1.1

// Errors reported by query validation.
var (
	ErrBadK      = errors.New("core: k must be positive")
	ErrNoSources = errors.New("core: query has no source nodes")
	ErrNoTargets = errors.New("core: query has no target nodes")
	ErrBadAlpha  = errors.New("core: alpha must be greater than 1")
	errWorkspace = errors.New("core: workspace too small for graph")
)

// Validate checks q against g.
func (q Query) Validate(g *graph.Graph) error {
	if q.K <= 0 {
		return fmt.Errorf("%w: %d", ErrBadK, q.K)
	}
	if len(q.Sources) == 0 {
		return ErrNoSources
	}
	if len(q.Targets) == 0 {
		return ErrNoTargets
	}
	for _, s := range q.Sources {
		if s < 0 || int(s) >= g.NumNodes() {
			return fmt.Errorf("%w: source %d", graph.ErrNodeRange, s)
		}
	}
	for _, t := range q.Targets {
		if t < 0 || int(t) >= g.NumNodes() {
			return fmt.Errorf("%w: target %d", graph.ErrNodeRange, t)
		}
	}
	return nil
}

// prepare validates the query and options, materializes defaults, and
// returns the workspace to use. Every row of the variant table runs it
// first (see variant.run).
func prepare(g *graph.Graph, q Query, opt *Options, needAlpha bool) (*Workspace, error) {
	if err := q.Validate(g); err != nil {
		return nil, err
	}
	if opt.Alpha == 0 {
		opt.Alpha = defaultAlpha
	}
	if needAlpha && !(opt.Alpha > 1) { // NaN too
		return nil, fmt.Errorf("%w: %v", ErrBadAlpha, opt.Alpha)
	}
	n := g.NumNodes() + 2
	if opt.Workspace == nil {
		opt.Workspace = NewWorkspace(n)
	} else if !opt.Workspace.Fits(n) {
		return nil, fmt.Errorf("%w: have %d, need %d", errWorkspace, opt.Workspace.n, n)
	}
	opt.bound = newQueryBound(opt.Context, opt.Budget)
	opt.Workspace.bound = opt.bound
	opt.Workspace.beginQuery(opt.ReuseResults)
	return opt.Workspace, nil
}
