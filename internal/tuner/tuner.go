// Package tuner implements the parameter search the paper leaves as
// future work (Section 7, Eval-I: "It will be our future work to
// automatically find the best choice of |L| and α"). Given a graph and a
// representative destination set, Tune samples stratified queries and
// evaluates IterBound-SPT_I under a grid of landmark counts and α values,
// picking the cheapest configuration.
//
// Cost is measured in deterministic work units (priority-queue pops plus
// edge relaxations) rather than wall time, so tuning results are
// reproducible and testable; on road networks the two rank configurations
// identically.
package tuner

import (
	"fmt"
	"math/rand"
	"sort"

	"kpj/internal/core"
	"kpj/internal/graph"
	"kpj/internal/landmark"
	"kpj/internal/sssp"
)

// Config controls the grid search. Zero values take the documented
// defaults.
type Config struct {
	// LandmarkCounts to try (default {4, 8, 16, 32}). A count of 0 tries
	// the no-landmark variant.
	LandmarkCounts []int
	// Alphas to try (default {1.05, 1.1, 1.2, 1.5}).
	Alphas []float64
	// SampleQueries drawn per evaluation (default 16), stratified across
	// the distance spectrum like the paper's Q1..Q5 sets.
	SampleQueries int
	// K used for the sample queries (default 20, the paper's default).
	K int
	// Seed makes sampling and landmark selection deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.LandmarkCounts) == 0 {
		c.LandmarkCounts = []int{4, 8, 16, 32}
	}
	if len(c.Alphas) == 0 {
		c.Alphas = []float64{1.05, 1.1, 1.2, 1.5}
	}
	if c.SampleQueries <= 0 {
		c.SampleQueries = 16
	}
	if c.K <= 0 {
		c.K = 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Trial records one evaluated configuration.
type Trial struct {
	Landmarks int
	Alpha     float64
	Cost      int64 // queue pops + edge relaxations over the sample
}

// Result is the tuning outcome.
type Result struct {
	Landmarks int
	Alpha     float64
	Index     *landmark.Index // nil when Landmarks == 0 won
	Cost      int64
	Trials    []Trial // every configuration, cheapest first
}

// Tune grid-searches (|L|, α) for IterBound-SPT_I on queries to the given
// destination set and returns the best configuration together with its
// ready-built index.
func Tune(g *graph.Graph, targets []graph.NodeID, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if len(targets) == 0 {
		return Result{}, fmt.Errorf("tuner: no target nodes")
	}

	sources, err := sampleSources(g, targets, cfg.SampleQueries, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	ws := core.NewWorkspace(g.NumNodes() + 2)

	var trials []Trial
	indexes := map[int]*landmark.Index{}
	for _, count := range cfg.LandmarkCounts {
		var ix *landmark.Index
		if count > 0 {
			ix, err = landmark.Build(g, count, cfg.Seed)
			if err != nil {
				return Result{}, err
			}
			indexes[count] = ix
		}
		for _, alpha := range cfg.Alphas {
			if alpha <= 1 {
				return Result{}, fmt.Errorf("tuner: alpha %v must exceed 1", alpha)
			}
			var st core.Stats
			for _, s := range sources {
				q := core.Query{Sources: []graph.NodeID{s}, Targets: targets, K: cfg.K}
				if _, err := core.IterBoundSPTI(g, q, core.Options{
					Index: ix, Alpha: alpha, Workspace: ws, Stats: &st,
				}); err != nil {
					return Result{}, fmt.Errorf("tuner: |L|=%d alpha=%v: %w", count, alpha, err)
				}
			}
			trials = append(trials, Trial{
				Landmarks: count,
				Alpha:     alpha,
				Cost:      st.NodesPopped + st.EdgesRelaxed,
			})
		}
	}
	sort.SliceStable(trials, func(i, j int) bool { return trials[i].Cost < trials[j].Cost })
	best := trials[0]
	return Result{
		Landmarks: best.Landmarks,
		Alpha:     best.Alpha,
		Index:     indexes[best.Landmarks],
		Cost:      best.Cost,
		Trials:    trials,
	}, nil
}

// sampleSources draws `count` query sources stratified by distance to the
// target set (near → far), mirroring the paper's Q1..Q5 workload.
func sampleSources(g *graph.Graph, targets []graph.NodeID, count int, seed int64) ([]graph.NodeID, error) {
	dist := sssp.DistancesToSet(g, targets)
	type nd struct {
		v graph.NodeID
		d graph.Weight
	}
	// Never empty: every target reaches itself at distance 0.
	reachable := make([]nd, 0, g.NumNodes())
	for v, d := range dist {
		if d < graph.Infinity {
			reachable = append(reachable, nd{graph.NodeID(v), d})
		}
	}
	sort.Slice(reachable, func(i, j int) bool {
		if reachable[i].d != reachable[j].d {
			return reachable[i].d < reachable[j].d
		}
		return reachable[i].v < reachable[j].v
	})
	if count > len(reachable) {
		count = len(reachable)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]graph.NodeID, 0, count)
	stride := len(reachable) / count
	for i := 0; i < count; i++ {
		lo := i * stride
		hi := lo + stride
		if i == count-1 {
			hi = len(reachable)
		}
		out = append(out, reachable[lo+rng.Intn(hi-lo)].v)
	}
	return out, nil
}
