package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"kpj/internal/gen"
	"kpj/internal/graph"
	"kpj/internal/sssp"
)

// defaultQ is the paper's default query set (Q3) as a zero-based index.
const defaultQ = 2

// defaultK is the paper's default k.
const defaultK = 20

// Table1 regenerates the dataset summary (paper Table 1) for the synthetic
// stand-ins at the configured scale, next to the real datasets' sizes.
func Table1(e *Env) ([]Table, error) {
	t := Table{
		Title:   fmt.Sprintf("Table 1 — datasets (scale %.2f)", e.Cfg.Scale),
		Columns: []string{"dataset", "paper#nodes", "paper#edges", "gen#nodes", "gen#edges", "avgDeg"},
	}
	for _, ds := range gen.Datasets() {
		g, err := e.Graph(ds.Name)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			ds.Name,
			fmt.Sprint(ds.PaperNodes),
			fmt.Sprint(ds.PaperEdges),
			fmt.Sprint(g.NumNodes()),
			fmt.Sprint(g.NumEdges()),
			fmt.Sprintf("%.2f", float64(g.NumEdges())/float64(g.NumNodes())),
		})
	}
	return []Table{t}, nil
}

// calCategoryNames returns the CAL category names in the order of Fig. 6's
// legend.
func calCategoryNames() []string { return []string{"Crater", "Glacier", "Harbor", "Lake"} }

// Fig6a regenerates Fig. 6(a): IterBound_I processing time on CAL (Q3,
// k=20) while varying the landmark count |L|.
func Fig6a(e *Env) ([]Table, error) {
	counts := []int{4, 8, 12, 16, 20, 32}
	t := Table{
		Title:   "Fig 6(a) — IterBoundI on CAL, Q3, k=20: vary |L| (avg ms/query)",
		Columns: append([]string{"|L|"}, calCategoryNames()...),
	}
	for _, count := range counts {
		row := []string{fmt.Sprint(count)}
		for _, cat := range calCategoryNames() {
			qs, _, err := e.QuerySets("CAL", cat)
			if err != nil {
				return nil, err
			}
			g, err := e.Graph("CAL")
			if err != nil {
				return nil, err
			}
			targets, err := g.Category(cat)
			if err != nil {
				return nil, err
			}
			m, err := e.runQueries("CAL", "IterBoundI", qs[defaultQ], targets, defaultK, 0, count)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(m.AvgMillis))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// Fig6b regenerates Fig. 6(b): IterBound_I on CAL (Q3, k=20) while varying
// the τ growth factor α.
func Fig6b(e *Env) ([]Table, error) {
	alphas := []float64{1.05, 1.1, 1.2, 1.5, 1.8}
	t := Table{
		Title:   "Fig 6(b) — IterBoundI on CAL, Q3, k=20: vary alpha (avg ms/query)",
		Columns: append([]string{"alpha"}, calCategoryNames()...),
	}
	for _, alpha := range alphas {
		row := []string{fmt.Sprintf("%.2f", alpha)}
		for _, cat := range calCategoryNames() {
			qs, _, err := e.QuerySets("CAL", cat)
			if err != nil {
				return nil, err
			}
			g, err := e.Graph("CAL")
			if err != nil {
				return nil, err
			}
			targets, err := g.Category(cat)
			if err != nil {
				return nil, err
			}
			m, err := e.runQueries("CAL", "IterBoundI", qs[defaultQ], targets, defaultK, alpha, 0)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(m.AvgMillis))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// sweepQ builds a "vary query set" table: rows Q1..Q5, one column per
// algorithm.
func (e *Env) sweepQ(title, dsName, category string, k int, algos []string) (Table, error) {
	t := Table{Title: title, Columns: append([]string{"Q"}, algos...)}
	g, err := e.Graph(dsName)
	if err != nil {
		return t, err
	}
	targets, err := g.Category(category)
	if err != nil {
		return t, err
	}
	qs, _, err := e.QuerySets(dsName, category)
	if err != nil {
		return t, err
	}
	for qi := 0; qi < gen.QuerySetCount; qi++ {
		row := []string{fmt.Sprintf("Q%d", qi+1)}
		for _, algo := range algos {
			m, err := e.runQueries(dsName, algo, qs[qi], targets, k, 0, 0)
			if err != nil {
				return t, err
			}
			row = append(row, ms(m.AvgMillis))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// sweepK builds a "vary k" table over the default query set Q3.
func (e *Env) sweepK(title, dsName, category string, ks []int, algos []string) (Table, error) {
	t := Table{Title: title, Columns: append([]string{"k"}, algos...)}
	g, err := e.Graph(dsName)
	if err != nil {
		return t, err
	}
	targets, err := g.Category(category)
	if err != nil {
		return t, err
	}
	qs, _, err := e.QuerySets(dsName, category)
	if err != nil {
		return t, err
	}
	for _, k := range ks {
		row := []string{fmt.Sprint(k)}
		for _, algo := range algos {
			m, err := e.runQueries(dsName, algo, qs[defaultQ], targets, k, 0, 0)
			if err != nil {
				return t, err
			}
			row = append(row, ms(m.AvgMillis))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig7 regenerates Fig. 7: all seven algorithms on CAL against the
// baselines, varying the query set and k for categories Lake, Crater, and
// Harbor.
func Fig7(e *Env) ([]Table, error) {
	var out []Table
	subs := []struct {
		fig string
		cat string
	}{
		{"7(a,b)", "Lake"},
		{"7(c,d)", "Crater"},
		{"7(e,f)", "Harbor"},
	}
	for _, sub := range subs {
		tq, err := e.sweepQ(
			fmt.Sprintf("Fig %s — CAL, T=%s, k=%d: vary Q (avg ms/query)", sub.fig, sub.cat, defaultK),
			"CAL", sub.cat, defaultK, AlgorithmOrder)
		if err != nil {
			return nil, err
		}
		out = append(out, tq)
		tk, err := e.sweepK(
			fmt.Sprintf("Fig %s — CAL, T=%s, Q3: vary k (avg ms/query)", sub.fig, sub.cat),
			"CAL", sub.cat, []int{10, 20, 30, 50}, AlgorithmOrder)
		if err != nil {
			return nil, err
		}
		out = append(out, tk)
	}
	return out, nil
}

// Fig8 regenerates Fig. 8: KSP queries (the single-node category Glacier)
// on CAL, varying Q and k across all seven algorithms.
func Fig8(e *Env) ([]Table, error) {
	tq, err := e.sweepQ(
		fmt.Sprintf("Fig 8(a) — CAL, T=Glacier (KSP), k=%d: vary Q (avg ms/query)", defaultK),
		"CAL", "Glacier", defaultK, AlgorithmOrder)
	if err != nil {
		return nil, err
	}
	tk, err := e.sweepK(
		"Fig 8(b) — CAL, T=Glacier (KSP), Q3: vary k (avg ms/query)",
		"CAL", "Glacier", []int{10, 20, 30, 50}, AlgorithmOrder)
	if err != nil {
		return nil, err
	}
	return []Table{tq, tk}, nil
}

// Fig9 regenerates Fig. 9: the four contributed algorithms on SJ and COL
// (T=T2), varying Q and k.
func Fig9(e *Env) ([]Table, error) {
	var out []Table
	for _, ds := range []string{"SJ", "COL"} {
		tq, err := e.sweepQ(
			fmt.Sprintf("Fig 9 — %s, T=T2, k=%d: vary Q (avg ms/query)", ds, defaultK),
			ds, "T2", defaultK, OursOrder)
		if err != nil {
			return nil, err
		}
		out = append(out, tq)
		tk, err := e.sweepK(
			fmt.Sprintf("Fig 9 — %s, T=T2, Q3: vary k (avg ms/query)", ds),
			ds, "T2", []int{10, 20, 30, 50}, OursOrder)
		if err != nil {
			return nil, err
		}
		out = append(out, tk)
	}
	return out, nil
}

// Fig10 regenerates Fig. 10: the four contributed algorithms on SJ and COL
// while the destination category grows from T1 to T4 (Q3, k=20).
func Fig10(e *Env) ([]Table, error) {
	var out []Table
	for _, ds := range []string{"SJ", "COL"} {
		t := Table{
			Title:   fmt.Sprintf("Fig 10 — %s, Q3, k=%d: vary |T| (avg ms/query)", ds, defaultK),
			Columns: append([]string{"T"}, OursOrder...),
		}
		g, err := e.Graph(ds)
		if err != nil {
			return nil, err
		}
		for _, cat := range gen.NestedNames {
			targets, err := g.Category(cat)
			if err != nil {
				return nil, err
			}
			qs, _, err := e.QuerySets(ds, cat)
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("%s(|%d|)", cat, len(targets))}
			for _, algo := range OursOrder {
				m, err := e.runQueries(ds, algo, qs[defaultQ], targets, defaultK, 0, 0)
				if err != nil {
					return nil, err
				}
				row = append(row, ms(m.AvgMillis))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out, nil
}

// fig11Samples is the number of sampled sources approximating the all-pairs
// distance distribution of Fig. 11.
const fig11Samples = 24

// Fig11 regenerates Fig. 11: for each dataset and nested category T_i, the
// percentile position of max_v δ(v, T_i) within the distribution of all
// shortest path lengths. The paper's n·n observations are approximated by
// full SSSP from a fixed random sample of sources.
func Fig11(e *Env) ([]Table, error) {
	t := Table{
		Title:   "Fig 11 — percentile of the longest shortest-path-to-T length (%)",
		Columns: append([]string{"dataset"}, gen.NestedNames...),
	}
	for _, ds := range []string{"SJ", "SF", "COL", "FLA", "USA"} {
		g, err := e.Graph(ds)
		if err != nil {
			return nil, err
		}
		// Sampled all-pairs distance distribution.
		rng := rand.New(rand.NewSource(e.Cfg.Seed + 500))
		var sample []graph.Weight
		for i := 0; i < fig11Samples; i++ {
			src := graph.NodeID(rng.Intn(g.NumNodes()))
			for _, d := range sssp.Dijkstra(g, graph.Forward, src) {
				if d < graph.Infinity {
					sample = append(sample, d)
				}
			}
		}
		sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
		row := []string{ds}
		for _, cat := range gen.NestedNames {
			_, dist, err := e.QuerySets(ds, cat)
			if err != nil {
				return nil, err
			}
			var longest graph.Weight
			for _, d := range dist {
				if d < graph.Infinity && d > longest {
					longest = d
				}
			}
			pos := sort.Search(len(sample), func(i int) bool { return sample[i] > longest })
			row = append(row, fmt.Sprintf("%.1f", 100*float64(pos)/float64(len(sample))))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// Fig12 regenerates Fig. 12: IterBound_I scalability across dataset sizes
// (T=T2, Q3, k=20) and across k on COL.
func Fig12(e *Env) ([]Table, error) {
	ta := Table{
		Title:   fmt.Sprintf("Fig 12(a) — IterBoundI, T=T2, Q3, k=%d: vary graph (avg ms/query)", defaultK),
		Columns: []string{"dataset", "nodes", "IterBoundI"},
	}
	for _, ds := range []string{"SJ", "SF", "COL", "FLA", "USA"} {
		g, err := e.Graph(ds)
		if err != nil {
			return nil, err
		}
		targets, err := g.Category("T2")
		if err != nil {
			return nil, err
		}
		qs, _, err := e.QuerySets(ds, "T2")
		if err != nil {
			return nil, err
		}
		m, err := e.runQueries(ds, "IterBoundI", qs[defaultQ], targets, defaultK, 0, 0)
		if err != nil {
			return nil, err
		}
		ta.Rows = append(ta.Rows, []string{ds, fmt.Sprint(g.NumNodes()), ms(m.AvgMillis)})
	}
	tb := Table{
		Title:   "Fig 12(b) — IterBoundI on COL, T=T2, Q3: vary k (avg ms/query)",
		Columns: []string{"k", "IterBoundI"},
	}
	g, err := e.Graph("COL")
	if err != nil {
		return nil, err
	}
	targets, err := g.Category("T2")
	if err != nil {
		return nil, err
	}
	qs, _, err := e.QuerySets("COL", "T2")
	if err != nil {
		return nil, err
	}
	for _, k := range []int{10, 50, 100, 200, 500} {
		m, err := e.runQueries("COL", "IterBoundI", qs[defaultQ], targets, k, 0, 0)
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, []string{fmt.Sprint(k), ms(m.AvgMillis)})
	}
	return []Table{ta, tb}, nil
}

// Fig13 regenerates Fig. 13: GKPJ queries on COL with a 4-node source
// category, DA-SPT against IterBound_I, varying |T| and k.
func Fig13(e *Env) ([]Table, error) {
	g, err := e.Graph("COL")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.Cfg.Seed + 600))
	sources := make([]graph.NodeID, 0, 4)
	seen := map[graph.NodeID]bool{}
	for len(sources) < 4 {
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if !seen[v] {
			seen[v] = true
			sources = append(sources, v)
		}
	}
	reps := e.Cfg.PerSet
	algos := []string{"DA-SPT", "IterBoundI"}

	ta := Table{
		Title:   fmt.Sprintf("Fig 13(a) — GKPJ on COL, |S|=4, k=%d: vary |T| (avg ms/query)", defaultK),
		Columns: append([]string{"T"}, algos...),
	}
	for _, cat := range gen.NestedNames {
		targets, err := g.Category(cat)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%s(|%d|)", cat, len(targets))}
		for _, algo := range algos {
			m, err := e.runJoinQueries("COL", algo, sources, targets, defaultK, reps, e.Cfg.Alpha)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(m.AvgMillis))
		}
		ta.Rows = append(ta.Rows, row)
	}

	tb := Table{
		Title:   "Fig 13(b) — GKPJ on COL, |S|=4, T=T2: vary k (avg ms/query)",
		Columns: append([]string{"k"}, algos...),
	}
	targets, err := g.Category("T2")
	if err != nil {
		return nil, err
	}
	for _, k := range []int{10, 20, 30, 50} {
		row := []string{fmt.Sprint(k)}
		for _, algo := range algos {
			m, err := e.runJoinQueries("COL", algo, sources, targets, k, reps, e.Cfg.Alpha)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(m.AvgMillis))
		}
		tb.Rows = append(tb.Rows, row)
	}
	return []Table{ta, tb}, nil
}
