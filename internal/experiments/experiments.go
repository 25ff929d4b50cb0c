// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7) on the synthetic stand-in datasets. Each driver
// prints the same rows/series the paper plots; EXPERIMENTS.md records the
// measured shapes against the paper's.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"time"

	"kpj/internal/core"
	"kpj/internal/gen"
	"kpj/internal/graph"
	"kpj/internal/landmark"
)

// Config scales the evaluation. The paper runs 100 queries per set on the
// full datasets; the defaults here are sized so the complete suite runs in
// minutes while preserving every qualitative shape. All experiments are
// deterministic given Seed.
type Config struct {
	Scale     float64 // linear dataset scale: nodes shrink by Scale² (default 0.25)
	PerSet    int     // queries per query set Q1..Q5 (default 5)
	Landmarks int     // landmark count |L| (default 16, as chosen in Fig. 6a)
	Alpha     float64 // τ growth factor (default 1.1, as chosen in Fig. 6b)
	Seed      int64   // base RNG seed (default 1)
	// Parallelism fans each query's subspace searches across workers
	// (<= 1 sequential; identical results, different wall-clock).
	Parallelism int
	Rounds      int // timing rounds per cell; the minimum round average
	// is reported, after one untimed warmup pass, to suppress GC and
	// cold-cache noise (default 3)
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.25
	}
	if c.PerSet <= 0 {
		c.PerSet = 5
	}
	if c.Landmarks <= 0 {
		c.Landmarks = 16
	}
	if c.Alpha <= 1 {
		c.Alpha = 1.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	return c
}

// Table is one printable result table (one per sub-figure).
type Table struct {
	Title   string
	Columns []string // first column is the row label
	Rows    [][]string
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	printRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	printRow(t.Columns)
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the table as RFC-4180 CSV with a leading comment line
// carrying the title — convenient for feeding the figures into a plotting
// tool.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Env caches generated datasets, categories, indexes, and query sets
// across the experiments of one run.
type Env struct {
	Cfg Config

	graphs  map[string]*graph.Graph
	indexes map[string]*landmark.Index
	queries map[string][gen.QuerySetCount][]graph.NodeID
	dists   map[string][]graph.Weight
	ws      map[string]*core.Workspace
}

// NewEnv returns an Env with defaulted configuration.
func NewEnv(cfg Config) *Env {
	return &Env{
		Cfg:     cfg.withDefaults(),
		graphs:  map[string]*graph.Graph{},
		indexes: map[string]*landmark.Index{},
		queries: map[string][gen.QuerySetCount][]graph.NodeID{},
		dists:   map[string][]graph.Weight{},
		ws:      map[string]*core.Workspace{},
	}
}

// Graph returns the named dataset, generated on first use with its
// categories attached (CAL-like named categories for CAL, nested T1..T4
// for every dataset).
func (e *Env) Graph(name string) (*graph.Graph, error) {
	if g, ok := e.graphs[name]; ok {
		return g, nil
	}
	ds, err := gen.ByName(name)
	if err != nil {
		return nil, err
	}
	g, err := ds.Build(e.Cfg.Scale, e.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	if name == "CAL" {
		if _, err := gen.AddCALCategories(g, e.Cfg.Seed+100); err != nil {
			return nil, err
		}
	}
	if _, err := gen.AddNestedCategories(g, e.Cfg.Seed+200); err != nil {
		return nil, err
	}
	e.graphs[name] = g
	return g, nil
}

// Index returns the landmark index of a dataset at the configured |L|.
func (e *Env) Index(name string) (*landmark.Index, error) {
	return e.IndexWith(name, e.Cfg.Landmarks)
}

// IndexWith returns (building and caching on first use) an index with an
// explicit landmark count, used by the Fig. 6(a) sweep.
func (e *Env) IndexWith(name string, count int) (*landmark.Index, error) {
	key := fmt.Sprintf("%s/%d", name, count)
	if ix, ok := e.indexes[key]; ok {
		return ix, nil
	}
	g, err := e.Graph(name)
	if err != nil {
		return nil, err
	}
	ix, err := landmark.Build(g, count, e.Cfg.Seed+300)
	if err != nil {
		return nil, err
	}
	e.indexes[key] = ix
	return ix, nil
}

// QuerySets returns the Q1..Q5 source sets for a dataset/category pair and
// every node's distance to the category.
func (e *Env) QuerySets(name, category string) ([gen.QuerySetCount][]graph.NodeID, []graph.Weight, error) {
	key := name + "/" + category
	if qs, ok := e.queries[key]; ok {
		return qs, e.dists[key], nil
	}
	g, err := e.Graph(name)
	if err != nil {
		var zero [gen.QuerySetCount][]graph.NodeID
		return zero, nil, err
	}
	qs, dist, err := gen.QuerySets(g, category, e.Cfg.PerSet, e.Cfg.Seed+400)
	if err != nil {
		var zero [gen.QuerySetCount][]graph.NodeID
		return zero, nil, err
	}
	e.queries[key] = qs
	e.dists[key] = dist
	return qs, dist, nil
}

// workspace returns the per-dataset reusable workspace.
func (e *Env) workspace(name string) (*core.Workspace, error) {
	if ws, ok := e.ws[name]; ok {
		return ws, nil
	}
	g, err := e.Graph(name)
	if err != nil {
		return nil, err
	}
	ws := core.NewWorkspace(g.NumNodes() + 2)
	e.ws[name] = ws
	return ws, nil
}

// AlgorithmOrder is the fixed column order of the seven algorithms, as in
// the paper's legends.
var AlgorithmOrder = []string{
	"DA", "DA-SPT", "BestFirst", "IterBound", "IterBoundP", "IterBoundI", "IterBoundI-NL",
}

// OursOrder is the four-contributed-algorithm order of Figs. 9-10.
var OursOrder = []string{"BestFirst", "IterBound", "IterBoundP", "IterBoundI"}

// Algorithm resolves a column name to its implementation. Every column is
// handed the dataset's landmark index; the rows that run without one (DA,
// DA-SPT, IterBoundI-NL) discard it themselves.
func Algorithm(name string) (core.Func, error) {
	if fn, ok := core.Algorithms()[name]; ok {
		return fn, nil
	}
	return nil, fmt.Errorf("experiments: unknown algorithm %q", name)
}

// Measurement is the averaged outcome of running one algorithm over a set
// of queries.
type Measurement struct {
	AvgMillis float64
	Stats     core.Stats
	Paths     int // total paths returned (sanity: k × queries when feasible)
}

// runQueries times fn over one query per source and returns the average.
func (e *Env) runQueries(dsName, algoName string, sources []graph.NodeID, targets []graph.NodeID, k int, overrideAlpha float64, overrideLandmarks int) (Measurement, error) {
	g, err := e.Graph(dsName)
	if err != nil {
		return Measurement{}, err
	}
	fn, err := Algorithm(algoName)
	if err != nil {
		return Measurement{}, err
	}
	count := e.Cfg.Landmarks
	if overrideLandmarks > 0 {
		count = overrideLandmarks
	}
	ix, err := e.IndexWith(dsName, count)
	if err != nil {
		return Measurement{}, err
	}
	ws, err := e.workspace(dsName)
	if err != nil {
		return Measurement{}, err
	}
	alpha := e.Cfg.Alpha
	if overrideAlpha > 1 {
		alpha = overrideAlpha
	}
	var m Measurement
	pass := func(collect bool) error {
		paths := 0
		// Engine metrics (when enabled via kpjbench -metrics) are fed
		// from the collect/warmup pass only, one observation per query,
		// so the timed rounds run exactly as they do without metrics.
		em := core.Metrics()
		for _, s := range sources {
			q := core.Query{Sources: []graph.NodeID{s}, Targets: targets, K: k}
			opt := core.Options{Index: ix, Alpha: alpha, Workspace: ws, Parallelism: e.Cfg.Parallelism}
			var qst core.Stats
			switch {
			case collect && em != nil:
				opt.Stats = &qst
			case collect:
				opt.Stats = &m.Stats
			}
			got, err := fn(g, q, opt)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", algoName, dsName, err)
			}
			if collect && em != nil {
				em.ObserveQuery(&qst, false, false, false)
				m.Stats.Add(qst)
			}
			paths += len(got)
		}
		if collect {
			m.Paths = paths
		}
		return nil
	}
	err = e.timedRounds(len(sources), pass, &m)
	return m, err
}

// timedRounds runs one untimed warmup pass and then Cfg.Rounds timed
// passes, recording the minimum per-query average in milliseconds — the
// standard way to suppress GC pauses and cold caches in micro-timings.
func (e *Env) timedRounds(queries int, pass func(collect bool) error, m *Measurement) error {
	if err := pass(true); err != nil { // warmup; also collects stats/paths
		return err
	}
	best := -1.0
	for r := 0; r < e.Cfg.Rounds; r++ {
		start := time.Now()
		if err := pass(false); err != nil {
			return err
		}
		avg := float64(time.Since(start).Microseconds()) / 1000 / float64(queries)
		if best < 0 || avg < best {
			best = avg
		}
	}
	m.AvgMillis = best
	return nil
}

// runJoinQueries is runQueries for GKPJ: each "query" uses the full source
// set; reps controls averaging.
func (e *Env) runJoinQueries(dsName, algoName string, sources, targets []graph.NodeID, k, reps int, alpha float64) (Measurement, error) {
	g, err := e.Graph(dsName)
	if err != nil {
		return Measurement{}, err
	}
	fn, err := Algorithm(algoName)
	if err != nil {
		return Measurement{}, err
	}
	ix, err := e.Index(dsName)
	if err != nil {
		return Measurement{}, err
	}
	ws, err := e.workspace(dsName)
	if err != nil {
		return Measurement{}, err
	}
	var m Measurement
	pass := func(collect bool) error {
		paths := 0
		// Same metrics discipline as runQueries: observe on the collect
		// pass only, leaving the timed rounds untouched.
		em := core.Metrics()
		for r := 0; r < reps; r++ {
			q := core.Query{Sources: sources, Targets: targets, K: k}
			opt := core.Options{Index: ix, Alpha: alpha, Workspace: ws, Parallelism: e.Cfg.Parallelism}
			var qst core.Stats
			switch {
			case collect && em != nil:
				opt.Stats = &qst
			case collect:
				opt.Stats = &m.Stats
			}
			got, err := fn(g, q, opt)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", algoName, dsName, err)
			}
			if collect && em != nil {
				em.ObserveQuery(&qst, false, false, false)
				m.Stats.Add(qst)
			}
			paths += len(got)
		}
		if collect {
			m.Paths = paths
		}
		return nil
	}
	err = e.timedRounds(reps, pass, &m)
	return m, err
}

func ms(v float64) string { return fmt.Sprintf("%.3f", v) }

// Registry maps experiment ids to drivers. Each driver returns the tables
// it regenerates.
func Registry() map[string]func(*Env) ([]Table, error) {
	return map[string]func(*Env) ([]Table, error){
		"table1": Table1,
		"fig6a":  Fig6a,
		"fig6b":  Fig6b,
		"fig7":   Fig7,
		"fig8":   Fig8,
		"fig9":   Fig9,
		"fig10":  Fig10,
		"fig11":  Fig11,
		"fig12":  Fig12,
		"fig13":  Fig13,
		"counts": Counts,
	}
}

// Order lists the experiment ids in presentation order (the paper's).
func Order() []string {
	return []string{"table1", "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "counts"}
}
