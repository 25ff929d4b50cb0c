package gen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"kpj/internal/graph"
)

// This file generates churn schedules: deterministic sequences of live
// graph deltas modeling the update traffic a road network sees in
// production — mostly weight changes (traffic), occasional segment
// closures and re-openings, and POI membership drift. A schedule is a
// pure function of (graph, config), so the metamorphic churn suite and
// the kpjgen -churn flag replay identical histories from one seed. Each
// delta is generated against the graph state left by its predecessors
// and is guaranteed to apply cleanly in order.

// ChurnConfig parameterizes Churn. Zero values pick the noted defaults.
type ChurnConfig struct {
	Steps int   // deltas in the schedule (default 16)
	Ops   int   // target operations per delta (default 8)
	Seed  int64 // RNG seed; equal (graph, config) yield equal schedules
}

func (c *ChurnConfig) defaults() {
	if c.Steps <= 0 {
		c.Steps = 16
	}
	if c.Ops <= 0 {
		c.Ops = 8
	}
}

// Churn derives a schedule of cfg.Steps deltas over g, returning the
// deltas and the graph that results from applying them all in order.
// The operation mix is roughly 60% edge weight changes, 15% inserts,
// 10% deletes, and 15% POI membership changes (skipped when the graph
// has no categories). g itself is not modified.
func Churn(g *graph.Graph, cfg ChurnConfig) ([]*graph.Delta, *graph.Graph, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	cur := g
	deltas := make([]*graph.Delta, 0, cfg.Steps)
	for step := 0; step < cfg.Steps; step++ {
		d := churnDelta(rng, cur, cfg.Ops)
		next, _, err := graph.Apply(cur, d)
		if err != nil {
			return nil, nil, fmt.Errorf("gen: churn step %d: %w", step, err)
		}
		deltas = append(deltas, d)
		cur = next
	}
	return deltas, cur, nil
}

// churnDelta draws one valid delta against g. Validity is by
// construction: every operation is checked against g plus the
// operations already drawn for this delta, respecting Apply's field
// evaluation order (weights, inserts, deletes, POI adds, POI removes).
func churnDelta(rng *rand.Rand, g *graph.Graph, ops int) *graph.Delta {
	n := g.NumNodes()
	type fullEdge struct {
		U, V graph.NodeID
		W    graph.Weight
	}
	var edges []fullEdge
	for u := 0; u < n; u++ {
		for _, e := range g.Out(graph.NodeID(u)) {
			edges = append(edges, fullEdge{U: graph.NodeID(u), V: e.To, W: e.W})
		}
	}
	maxW := graph.Weight(1)
	for _, e := range edges {
		if e.W > maxW {
			maxW = e.W
		}
	}
	cats := g.Categories()

	d := &graph.Delta{}
	touched := map[[2]graph.NodeID]bool{} // edges already used by this delta
	poiTouched := map[string]map[graph.NodeID]bool{}
	for i := 0; i < ops; i++ {
		switch roll := rng.Intn(100); {
		case roll < 60 && len(edges) > 0: // weight change
			e := edges[rng.Intn(len(edges))]
			key := [2]graph.NodeID{e.U, e.V}
			if touched[key] {
				continue
			}
			touched[key] = true
			w := 1 + graph.Weight(rng.Int63n(int64(maxW)))
			d.SetWeights = append(d.SetWeights, graph.EdgeUpdate{U: e.U, V: e.V, W: w})
		case roll < 75: // insert an absent edge
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			key := [2]graph.NodeID{u, v}
			if u == v || touched[key] {
				continue
			}
			if _, ok := g.HasEdge(u, v); ok {
				continue
			}
			touched[key] = true
			w := 1 + graph.Weight(rng.Int63n(int64(maxW)))
			d.Inserts = append(d.Inserts, graph.EdgeUpdate{U: u, V: v, W: w})
		case roll < 85 && len(edges) > 0: // delete (a closure)
			e := edges[rng.Intn(len(edges))]
			key := [2]graph.NodeID{e.U, e.V}
			if touched[key] {
				continue
			}
			touched[key] = true
			d.Deletes = append(d.Deletes, graph.EdgeRef{U: e.U, V: e.V})
		case len(cats) > 0: // POI membership drift
			cat := cats[rng.Intn(len(cats))]
			members, err := g.Category(cat)
			if err != nil {
				continue
			}
			if poiTouched[cat] == nil {
				poiTouched[cat] = map[graph.NodeID]bool{}
			}
			if rng.Intn(2) == 0 { // add a non-member
				v := graph.NodeID(rng.Intn(n))
				if poiTouched[cat][v] || containsSorted(members, v) {
					continue
				}
				poiTouched[cat][v] = true
				d.AddPOIs = append(d.AddPOIs, graph.POIUpdate{Category: cat, Node: v})
			} else { // remove a member, but never empty the category
				if len(members) < 2 {
					continue
				}
				v := members[rng.Intn(len(members))]
				if poiTouched[cat][v] {
					continue
				}
				poiTouched[cat][v] = true
				d.RemovePOIs = append(d.RemovePOIs, graph.POIUpdate{Category: cat, Node: v})
			}
		}
	}
	sortDeltaOps(d)
	return d
}

// sortDeltaOps puts a generated delta into a canonical order so the
// schedule bytes are stable: ops within one field commute (they touch
// distinct edges / (category, node) pairs by construction).
func sortDeltaOps(d *graph.Delta) {
	sort.Slice(d.SetWeights, func(i, j int) bool {
		return edgeLess(d.SetWeights[i].U, d.SetWeights[i].V, d.SetWeights[j].U, d.SetWeights[j].V)
	})
	sort.Slice(d.Inserts, func(i, j int) bool { return edgeLess(d.Inserts[i].U, d.Inserts[i].V, d.Inserts[j].U, d.Inserts[j].V) })
	sort.Slice(d.Deletes, func(i, j int) bool { return edgeLess(d.Deletes[i].U, d.Deletes[i].V, d.Deletes[j].U, d.Deletes[j].V) })
	sort.Slice(d.AddPOIs, func(i, j int) bool { return poiLess(d.AddPOIs[i], d.AddPOIs[j]) })
	sort.Slice(d.RemovePOIs, func(i, j int) bool { return poiLess(d.RemovePOIs[i], d.RemovePOIs[j]) })
}

func edgeLess(u1, v1, u2, v2 graph.NodeID) bool {
	if u1 != u2 {
		return u1 < u2
	}
	return v1 < v2
}

func poiLess(a, b graph.POIUpdate) bool {
	if a.Category != b.Category {
		return a.Category < b.Category
	}
	return a.Node < b.Node
}

func containsSorted(nodes []graph.NodeID, v graph.NodeID) bool {
	i := sort.Search(len(nodes), func(i int) bool { return nodes[i] >= v })
	return i < len(nodes) && nodes[i] == v
}

// WriteChurn writes a schedule as JSON Lines: one delta object per line,
// in application order — the wire format POST /update consumes, so a
// schedule file replays against a live server with one request per line.
func WriteChurn(w io.Writer, deltas []*graph.Delta) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, d := range deltas {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return bw.Flush()
}
