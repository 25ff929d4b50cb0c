package kpj

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"kpj/internal/core"
	"kpj/internal/landmark"
)

// Algorithm selects the query-processing algorithm.
type Algorithm int

const (
	// IterBoundSPTI is the paper's flagship algorithm (Section 5.3):
	// iteratively bounding over the reverse search space, restricted to an
	// incrementally grown shortest path tree. It is the best performer
	// across the paper's evaluation and this library's default.
	IterBoundSPTI Algorithm = iota
	// IterBoundSPTP uses the partial shortest path tree of Section 5.2.
	IterBoundSPTP
	// IterBound is the plain iteratively bounding approach (Section 5.1).
	IterBound
	// BestFirst is the best-first paradigm with exact subspace resolution
	// (Section 4).
	BestFirst
	// DA is the deviation-algorithm baseline (Yen-style, Section 3).
	DA
	// DASPT is the state-of-the-art deviation baseline with an online full
	// shortest path tree (Section 3).
	DASPT
)

// algorithms is the one name table: every Algorithm, in enum order, with
// the name the library, the HTTP server and the CLIs know it by, and its
// engine.
var algorithms = [...]struct {
	name string
	fn   core.Func
}{
	IterBoundSPTI: {"IterBoundI", core.IterBoundSPTI},
	IterBoundSPTP: {"IterBoundP", core.IterBoundSPTP},
	IterBound:     {"IterBound", core.IterBound},
	BestFirst:     {"BestFirst", core.BestFirst},
	DA:            {"DA", core.DA},
	DASPT:         {"DA-SPT", core.DASPT},
}

// Algorithms returns every Algorithm in enum order, the default first.
func Algorithms() []Algorithm {
	out := make([]Algorithm, len(algorithms))
	for i := range out {
		out[i] = Algorithm(i)
	}
	return out
}

// ParseAlgorithm returns the Algorithm named name (as String prints it);
// the empty name selects the default, IterBoundSPTI. Any other name is an
// error wrapping ErrUnknownAlgorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	if name == "" {
		return IterBoundSPTI, nil
	}
	for i, a := range algorithms {
		if a.name == name {
			return Algorithm(i), nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, name)
}

func (a Algorithm) known() bool { return a >= 0 && int(a) < len(algorithms) }

func (a Algorithm) String() string {
	if a.known() {
		return algorithms[a].name
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ErrUnknownAlgorithm reports an Options.Algorithm value outside the enum,
// or a name ParseAlgorithm does not know.
var ErrUnknownAlgorithm = errors.New("kpj: unknown algorithm")

// Path is one result path: the node sequence from a source to a
// destination node, and its length. A source that already satisfies the
// destination category yields a single-node path of length 0.
type Path struct {
	Nodes  []NodeID
	Length Weight
}

// Stats counts the work a query performed (searches, queue pops, relaxed
// edges, bounding rounds, SPT sizes).
type Stats = core.Stats

// Options tunes query processing. The zero value (or a nil pointer) runs
// the default algorithm without a landmark index.
type Options struct {
	// Algorithm selects the processing strategy (default IterBoundSPTI).
	Algorithm Algorithm
	// Alpha is the τ growth factor of the iteratively bounding algorithms
	// (must exceed 1; default 1.1, the paper's recommendation).
	Alpha float64
	// Index enables landmark lower bounds (see BuildIndex). Nil runs the
	// no-landmark variants, which remain correct but explore more.
	Index *Index
	// Stats, when non-nil, accumulates work counters.
	Stats *Stats
	// Trace, when non-nil, receives a human-readable line per engine step
	// (subspaces enqueued/bounded/pruned, τ rounds, emitted paths) — an
	// EXPLAIN-style view of the query.
	Trace io.Writer
	// Spans, when non-nil, records the query's phase timeline (lower-bound
	// table builds, SPT construction, bound iterations, divisions,
	// candidate resolutions) for EXPLAIN ANALYZE-style inspection; see
	// NewSpans. Purely observational — the emitted path sequence is
	// identical with or without it.
	Spans *Spans
	// Context, when non-nil, makes the query cancelable: cancellation or
	// a deadline stops the engine within a few hundred heap pops, and the
	// query returns the paths found so far plus a *TruncatedError wrapping
	// ErrCanceled. It is the one cancellation input of every query entry
	// point; Batch also stops scheduling queries once it is done.
	Context context.Context
	// Budget, when positive, caps the query's total work, measured in
	// heap pops plus edge relaxations (the units Stats reports as
	// NodesPopped and EdgesRelaxed) plus one unit per subspace-queue pop
	// of the main loop, which Stats does not count: the smallest budget
	// that completes a query exceeds NodesPopped+EdgesRelaxed by its
	// number of main-loop rounds. A query that exceeds it returns the
	// paths found so far plus a *TruncatedError wrapping
	// ErrBudgetExceeded. Budgets make worst-case latency proportional to
	// the budget regardless of graph size, k, or query difficulty.
	Budget int64
	// BoundsCache is ignored: every query builds its Eq. 2 tables in its
	// own workspace. It remains only because the benchmark harness in
	// bench/kpjload still sets it; it goes once that use is dropped.
	BoundsCache *BoundsCache
}

// BoundsCache is an empty placeholder kept only for bench/kpjload, which
// still creates one and passes it to Options.BoundsCache and
// Applied.RekeyBounds; all three ignore it.
type BoundsCache struct{}

// NewBoundsCache ignores capacity and returns an empty BoundsCache; see
// BoundsCache.
func NewBoundsCache(int) *BoundsCache { return &BoundsCache{} }

// Index is a prebuilt landmark (ALT) lower-bound index over one Graph. It
// is immutable and safe for concurrent use, and is valid only for the
// graph it was built from.
type Index struct {
	ix *landmark.Index
}

// BuildIndex selects `count` landmarks by the farthest-point heuristic
// (the paper uses 16) and precomputes their distance tables in
// O(count · (m + n log n)) time and O(count · n) space, using all cores
// for the independent per-landmark Dijkstras.
func BuildIndex(g *Graph, count int, seed int64) (*Index, error) {
	ix, err := landmark.Build(g.g, count, seed)
	if err != nil {
		return nil, err
	}
	return &Index{ix: ix}, nil
}

// Count returns the number of landmarks.
func (ix *Index) Count() int { return ix.ix.Count() }

// Fingerprint identifies the index contents: two indexes with the same
// fingerprint were built from identical graph topology, weights,
// categories, and landmark sets, so their bound tables are interchangeable.
// WAL replay checks it per record, and the serving tier carries it in
// every epoch header, where kpjrouter's fences and divergence check
// compare it across replicas.
func (ix *Index) Fingerprint() uint64 { return ix.ix.Fingerprint() }

// SizeBytes estimates the index memory footprint.
func (ix *Index) SizeBytes() int64 { return ix.ix.SizeBytes() }

func (o *Options) coreOptions(g *Graph) (core.Options, core.Func, error) {
	var opt core.Options
	algo := IterBoundSPTI
	if o != nil {
		opt.Alpha = o.Alpha
		opt.Stats = o.Stats
		opt.Spans = o.Spans
		opt.Context = o.Context
		opt.Budget = o.Budget
		if o.Index != nil {
			opt.Index = o.Index.ix
		}
		if o.Trace != nil {
			opt.Trace = traceWriter(o.Trace, g.NumNodes())
		}
		algo = o.Algorithm
	}
	if !algo.known() {
		return opt, nil, fmt.Errorf("%w: %d", ErrUnknownAlgorithm, int(algo))
	}
	return opt, algorithms[algo].fn, nil
}

// TopKJoinSets answers the most general query: the k shortest simple paths
// from any node of sources to any node of targets. Duplicate ids are
// ignored. Fewer than k paths are returned when fewer exist.
//
// When the query is interrupted by Options.Context or Options.Budget, the
// returned slice holds the paths found so far (a prefix of the full
// answer) and the error is a *TruncatedError satisfying
// errors.Is(err, ErrCanceled) or errors.Is(err, ErrBudgetExceeded).
func (g *Graph) TopKJoinSets(sources, targets []NodeID, k int, opt *Options) ([]Path, error) {
	copt, fn, err := opt.coreOptions(g)
	if err != nil {
		return nil, err
	}
	copt.Workspace = g.getWorkspace()
	defer g.putWorkspace(copt.Workspace)
	if core.Metrics() != nil && copt.Stats == nil {
		// Engine-wide counters aggregate per-query Stats at completion;
		// collect them even when the caller did not ask for stats.
		copt.Stats = new(Stats)
	}
	q := core.Query{Sources: dedupe(sources), Targets: dedupe(targets), K: k}
	paths, err := finishQuery(fn(g.g, q, copt))
	observeQuery(copt.Stats, copt.Budget, err)
	return paths, err
}

// getWorkspace hands out one of the Graph's recycled workspaces, serving
// both the single-query hot path and the per-worker scratch of batches.
func (g *Graph) getWorkspace() *core.Workspace {
	ws := g.ws.Get().(*core.Workspace)
	if n := g.NumNodes() + 2; !ws.Fits(n) {
		return core.NewWorkspace(n)
	}
	return ws
}

// putWorkspace returns ws to the Graph's pool.
func (g *Graph) putWorkspace(ws *core.Workspace) {
	ws.DetachBound()
	g.ws.Put(ws)
}

// TopKJoin answers a KPJ query: the k shortest simple paths from source to
// any node of the named category.
func (g *Graph) TopKJoin(source NodeID, category string, k int, opt *Options) ([]Path, error) {
	targets, err := g.Category(category)
	if err != nil {
		return nil, err
	}
	return g.TopKJoinSets([]NodeID{source}, targets, k, opt)
}

// TopK answers a classical KSP query: the k shortest simple paths from
// source to target.
func (g *Graph) TopK(source, target NodeID, k int, opt *Options) ([]Path, error) {
	return g.TopKJoinSets([]NodeID{source}, []NodeID{target}, k, opt)
}

// TopKCategoryJoin answers a GKPJ query (Section 6): the k shortest simple
// paths from any node of sourceCategory to any node of targetCategory.
func (g *Graph) TopKCategoryJoin(sourceCategory, targetCategory string, k int, opt *Options) ([]Path, error) {
	sources, err := g.Category(sourceCategory)
	if err != nil {
		return nil, err
	}
	targets, err := g.Category(targetCategory)
	if err != nil {
		return nil, err
	}
	return g.TopKJoinSets(sources, targets, k, opt)
}

func dedupe(nodes []NodeID) []NodeID {
	if len(nodes) < 2 {
		return nodes
	}
	out := make([]NodeID, len(nodes))
	copy(out, nodes)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}
