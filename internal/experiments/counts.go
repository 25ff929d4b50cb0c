package experiments

import "fmt"

// counts is an extra experiment beyond the paper's figures: it makes the
// Lemma 4.1 argument measurable. The paper proves that the best-first
// paradigm computes a subset of the deviation paradigm's shortest paths
// and that iterative bounding prunes further (Fig. 4); this table reports
// the actual work counters — subspace shortest-path/TestLB searches,
// bounding rounds, queue pops, and SPT sizes — for every algorithm on the
// same query mix (CAL, T=Lake, Q3, k=20).
func counts(e *Env) ([]Table, error) {
	t := Table{
		Title: fmt.Sprintf("Counts — work per query, CAL, T=Lake, Q3, k=%d (avg over %d queries)",
			defaultK, e.Cfg.PerSet),
		Columns: []string{"algorithm", "searches", "tauRounds", "lowerBounds", "queuePops", "edgeRelax", "sptNodes", "ms"},
	}
	g, err := e.Graph("CAL")
	if err != nil {
		return nil, err
	}
	targets, err := g.Category("Lake")
	if err != nil {
		return nil, err
	}
	qs, _, err := e.QuerySets("CAL", "Lake")
	if err != nil {
		return nil, err
	}
	sources := qs[defaultQ]
	for _, algo := range algorithmOrder {
		m, err := e.runQueries("CAL", algo, sources, targets, defaultK, 0, 0)
		if err != nil {
			return nil, err
		}
		per := func(v int64) string { return fmt.Sprintf("%.1f", float64(v)/float64(len(sources))) }
		t.Rows = append(t.Rows, []string{
			algo,
			per(m.Stats.Searches),
			per(m.Stats.TauRounds),
			per(m.Stats.LowerBounds),
			per(m.Stats.NodesPopped),
			per(m.Stats.EdgesRelaxed),
			per(m.Stats.SPTNodes),
			ms(m.AvgMillis),
		})
	}
	return []Table{t}, nil
}
