package kpj

import "kpj/internal/tuner"

// TuneTrial records one configuration evaluated by Tune: the landmark
// count, the τ growth factor, and the deterministic work cost (queue pops
// plus edge relaxations) the sampled queries incurred under it.
type TuneTrial = tuner.Trial

// TuneReport is the outcome of automatic parameter selection.
type TuneReport struct {
	// Landmarks and Alpha are the winning configuration; pass Alpha and
	// Index straight into Options.
	Landmarks int
	Alpha     float64
	// Index is the ready-built landmark index of the winning
	// configuration (nil when running without landmarks won).
	Index *Index
	// Trials lists every evaluated configuration, cheapest first.
	Trials []TuneTrial
}

// TuneOptions controls the grid search; the zero value uses the defaults
// (|L| ∈ {4,8,16,32}, α ∈ {1.05,1.1,1.2,1.5}, 16 sampled queries, k=20).
type TuneOptions struct {
	LandmarkCounts []int
	Alphas         []float64
	SampleQueries  int
	K              int
	Seed           int64
}

// Tune grid-searches the landmark count |L| and bounding factor α for
// queries against the named category — the parameter selection the paper
// performs by hand in Fig. 6 and names as future work to automate. Cost is
// measured in deterministic work units, so results are reproducible.
//
// Typical use:
//
//	rep, _ := g.Tune("hotel", nil)
//	paths, _ := g.TopKJoin(src, "hotel", 10, &kpj.Options{Index: rep.Index, Alpha: rep.Alpha})
func (g *Graph) Tune(category string, opt *TuneOptions) (*TuneReport, error) {
	targets, err := g.Category(category)
	if err != nil {
		return nil, err
	}
	var cfg tuner.Config
	if opt != nil {
		cfg = tuner.Config{
			LandmarkCounts: opt.LandmarkCounts,
			Alphas:         opt.Alphas,
			SampleQueries:  opt.SampleQueries,
			K:              opt.K,
			Seed:           opt.Seed,
		}
	}
	res, err := tuner.Tune(g.g, targets, cfg)
	if err != nil {
		return nil, err
	}
	rep := &TuneReport{
		Landmarks: res.Landmarks,
		Alpha:     res.Alpha,
		Trials:    res.Trials,
	}
	if res.Index != nil {
		rep.Index = &Index{ix: res.Index}
	}
	return rep, nil
}
