package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"kpj/internal/gen"
	"kpj/internal/graph"
)

// The dataset is fixed: one synthetic road network, one nested POI
// scheme, one landmark set. -seed draws the traffic (which sources are
// queried, which edges are reweighted, the churn schedule) from it. A
// graph that changed with the seed would move every metric by the
// luck of where its few T1 POIs fall — far-query work differed by ±25 %
// between graph seeds and by ±2 % between traffic seeds on one graph
// (pops + relaxations of a 360-query far pass, ten seeds each) — and the
// benchmark would measure the generator.
const (
	datasetSeed     = 1
	landmarkCount   = 16
	checkpointEvery = 32 // epochs between WAL checkpoints (kpjserver -checkpoint-every)
	segmentSize     = 8  // consecutive updates whose wall time gives one throughput sample
)

// runSeconds is BENCHMARK.json's run_seconds: about how long the timed
// main phase of every workload lasts on the machine in bench/README.md.
// The driver passes it as -seconds. It is not a knob: every phase is a
// fixed op list of a fixed number of passes, segments or steps, so the
// work a run measures does not depend on how fast the machine or the
// change under test is, and counts repeat exactly for a seed.
const runSeconds = 10

// config sizes a run. defaultConfig is the benchmark; tracedConfig is
// the shorter run behind the per-layer metrics; smokeConfig is the same
// code on a 40×40 grid for go test.
type config struct {
	side          int // grid side: side*side nodes
	setupCycles   int // cold starts measured for setup_s
	restartCycles int // crash-reopen cycles: recovery is checked on each, timed on a traced run
	warmup        int // far queries of the standard warm-up
	far, near     int // distinct sources per pass
	farPasses     int // timed passes of query-far (~2.9 s each)
	nearPasses    int // timed passes of query-near (~0.55 s each)
	// updates is the number of epochs update-reweight publishes: one
	// untimed segment, then timed ones (~0.7 s each). steps is the same
	// for live-churn (~0.4 s each, the first untimed). Both must leave
	// the log replayBehind records past a checkpoint.
	updates int
	steps   int
	reads   int // queries after each live-churn delta
	oracle  map[string]int
}

func defaultConfig() config {
	return config{
		side: 300, setupCycles: 3, restartCycles: 1,
		warmup: 100, far: 360, near: 2000, reads: 50,
		farPasses: 4, nearPasses: 20,
		updates: 16 + 4*checkpointEvery, steps: 8 + checkpointEvery,
		// DA without an index costs ~0.45 s per far query, ~1 ms per
		// near one and ~25 ms per T2 one; each count keeps the oracle
		// near one second.
		oracle: map[string]int{"query-far": 3, "query-near": 50, "update-reweight": 20, "live-churn": 30},
	}
}

// tracedConfig shortens cfg for a traced run, which does every update
// twice (fleet and shadow chain) and replays every tapped read: two
// cold starts, a quarter of the passes, and one checkpoint interval of
// updates — segment 0 untimed, segment 1 timed with the taps off, four
// tapped, the third of which carries the checkpoint at epoch 32.
// live-churn keeps its steps: it needs them to reach its checkpoint.
func tracedConfig(cfg config) config {
	cfg.setupCycles = 2
	cfg.restartCycles = 3
	cfg.farPasses = max(2, cfg.farPasses/4)
	cfg.nearPasses = max(2, cfg.nearPasses/4)
	cfg.updates = 16 + checkpointEvery
	return cfg
}

func smokeConfig() config {
	return config{
		side: 40, setupCycles: 2, restartCycles: 2,
		warmup: 10, far: 30, near: 60, reads: 4,
		farPasses: 2, nearPasses: 2,
		updates: 16 + 2*checkpointEvery, steps: 8 + checkpointEvery,
		oracle: map[string]int{"query-far": 3, "query-near": 10, "update-reweight": 5, "live-churn": 5},
	}
}

type workloadDef struct {
	name string
	why  string
}

// workloads is the BENCHMARK.json list; the test pins the two together.
var workloads = []workloadDef{
	{"query-far", "engine-bound reads: k=20 joins to the 9-node T1 from its farthest fifth of sources, ~8 ms each, 14 KB answers"},
	{"query-near", "transport-bound reads: k=10 joins to T4 from its nearest fifth, ~0.1 ms of engine under ~0.2 ms of router, loopback and JSON"},
	{"update-reweight", "delta-proportional writes: single-edge reweights through router, apply, partial landmark repair, WAL fsync and checkpoints; restart replays 16 records"},
	{"live-churn", "mixed: one 8-op churn delta (full-rebuild fallback, cache drops) then 50 T2 reads on the new epoch, so a write gain that costs reads shows"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// op is one client operation: a routed GET /query or POST /update.
type op struct {
	update   bool
	source   graph.NodeID
	category string
	k        int
	delta    *graph.Delta

	target string // "/query?source=..&category=..&k=.." or "/update"
	body   []byte // JSON delta of an update
}

func queryOp(src graph.NodeID, cat string, k int) op {
	return op{source: src, category: cat, k: k,
		target: fmt.Sprintf("/query?source=%d&category=%s&k=%d", src, cat, k)}
}

func updateOp(d *graph.Delta) (op, error) {
	body, err := json.Marshal(d)
	if err != nil {
		return op{}, fmt.Errorf("encode delta: %w", err)
	}
	return op{update: true, delta: d, target: "/update", body: body}, nil
}

// dataset is the fixed network as the generator made it, in the two
// forms the run needs: the DIMACS bytes every cold start imports, and
// the generator's graph, from which op lists are drawn.
type dataset struct {
	gr, pois []byte
	g        *graph.Graph
	// groups[cat] are the paper's distance-stratified source sets Q1..Q5
	// for destination category cat, each complete and in distance order.
	groups map[string][gen.QuerySetCount][]graph.NodeID
}

func newDataset(side int) (*dataset, error) {
	g, err := gen.Road(gen.RoadConfig{Width: side, Height: side, Seed: datasetSeed})
	if err != nil {
		return nil, err
	}
	if _, err := gen.AddNestedCategories(g, datasetSeed+1); err != nil {
		return nil, err
	}
	var gr, pois bytes.Buffer
	if err := graph.WriteGr(&gr, g); err != nil {
		return nil, err
	}
	if err := graph.WriteCategories(&pois, g); err != nil {
		return nil, err
	}
	ds := &dataset{gr: gr.Bytes(), pois: pois.Bytes(), g: g,
		groups: map[string][gen.QuerySetCount][]graph.NodeID{}}
	for _, cat := range []string{"T1", "T2", "T4"} {
		sets, _, err := gen.QuerySets(g, cat, g.NumNodes(), datasetSeed)
		if err != nil {
			return nil, err
		}
		ds.groups[cat] = sets
	}
	return ds, nil
}

// sample draws n distinct members of group in draw order. A group
// smaller than n (smoke scale) is returned whole, shuffled.
func sample(rng *rand.Rand, group []graph.NodeID, n int) []graph.NodeID {
	perm := rng.Perm(len(group))
	if n > len(perm) {
		n = len(perm)
	}
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = group[perm[i]]
	}
	return out
}

// plan is everything a run sends, generated before any clock starts.
type plan struct {
	warmup []op // the standard warm-up, part of setup_s on every workload
	ops    []op // the main phase, in order
	probes []op // answers compared before and after every restart
}

const probeCount = 20

// queries draws n distinct sources from distance group q (0 nearest …
// 4 farthest) of category cat.
func queries(rng *rand.Rand, ds *dataset, cat string, q, k, n int) []op {
	out := make([]op, 0, n)
	for _, s := range sample(rng, ds.groups[cat][q], n) {
		out = append(out, queryOp(s, cat, k))
	}
	return out
}

func farQueries(rng *rand.Rand, ds *dataset, n int) []op  { return queries(rng, ds, "T1", 4, 20, n) }
func nearQueries(rng *rand.Rand, ds *dataset, n int) []op { return queries(rng, ds, "T4", 0, 10, n) }

// newPlan derives the workload's operations from seed. Each part draws
// from its own stream so that resizing one leaves the others unchanged.
func newPlan(w string, seed int64, cfg config, ds *dataset) (*plan, error) {
	stream := func(k int64) *rand.Rand { return rand.New(rand.NewSource(seed*1000 + k)) }
	p := &plan{
		warmup: farQueries(stream(1), ds, cfg.warmup),
		probes: nearQueries(stream(2), ds, probeCount),
	}
	switch w {
	case "query-far", "query-near":
		if w == "query-far" {
			p.ops = farQueries(stream(7), ds, cfg.far)
		} else {
			p.ops = nearQueries(stream(7), ds, cfg.near)
		}
	case "update-reweight":
		ops, err := reweights(stream(9), ds.g, cfg.updates)
		if err != nil {
			return nil, err
		}
		p.ops = ops
	case "live-churn":
		deltas, _, err := gen.Churn(ds.g, gen.ChurnConfig{Steps: cfg.steps, Ops: 8, Seed: seed*1000 + 9})
		if err != nil {
			return nil, err
		}
		reads := queries(stream(7), ds, "T2", 3, 20, cfg.steps*cfg.reads)
		for i, d := range deltas {
			u, err := updateOp(d)
			if err != nil {
				return nil, err
			}
			p.ops = append(p.ops, u)
			for j := 0; j < cfg.reads; j++ {
				p.ops = append(p.ops, reads[(i*cfg.reads+j)%len(reads)])
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w)
	}
	return p, nil
}

// reweights draws n single-edge deltas: an existing edge of a uniformly
// drawn node gets 1..50 heavier than the stream last left it.
func reweights(rng *rand.Rand, g *graph.Graph, n int) ([]op, error) {
	cur := map[[2]graph.NodeID]graph.Weight{}
	var ops []op
	for len(ops) < n {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		out := g.Out(u)
		if len(out) == 0 {
			continue
		}
		e := out[rng.Intn(len(out))]
		key := [2]graph.NodeID{u, e.To}
		w, seen := cur[key]
		if !seen {
			w = e.W
		}
		w += 1 + graph.Weight(rng.Intn(50))
		cur[key] = w
		o, err := updateOp(&graph.Delta{SetWeights: []graph.EdgeUpdate{{U: u, V: e.To, W: w}}})
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// mergedReweights folds update-reweight's ops into one delta carrying
// the last weight of every touched edge. Applying it to epoch 0 must give
// the graph the replica reached one update at a time.
func (p *plan) mergedReweights() *graph.Delta {
	last := map[[2]graph.NodeID]graph.Weight{}
	for _, o := range p.ops {
		e := o.delta.SetWeights[0]
		last[[2]graph.NodeID{e.U, e.V}] = e.W
	}
	d := &graph.Delta{}
	for k, w := range last {
		d.SetWeights = append(d.SetWeights, graph.EdgeUpdate{U: k[0], V: k[1], W: w})
	}
	sort.Slice(d.SetWeights, func(i, j int) bool {
		a, b := d.SetWeights[i], d.SetWeights[j]
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	return d
}

// encode renders the plan as bytes, for the determinism test.
func (p *plan) encode() []byte {
	var buf bytes.Buffer
	for _, list := range [][]op{p.warmup, p.ops, p.probes} {
		for _, o := range list {
			buf.WriteString(o.target)
			buf.WriteByte(' ')
			buf.Write(o.body)
			buf.WriteByte('\n')
		}
		buf.WriteString("--\n")
	}
	return buf.Bytes()
}
