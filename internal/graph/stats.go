package graph

import "fmt"

// Stats summarizes a graph, mirroring the dataset summary of the paper's
// Table 1 plus a few sanity measures used by the generator tests.
type Stats struct {
	Nodes     int
	Edges     int
	MinW      Weight
	MaxW      Weight
	SumW      int64
	Isolated  int // nodes with neither in- nor out-edges
	MaxOutDeg int
}

// Summarize computes Stats for g in one pass over the edges.
func Summarize(g *Graph) Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), MinW: Infinity}
	for v := 0; v < g.NumNodes(); v++ {
		id := NodeID(v)
		if d := g.OutDegree(id); d > s.MaxOutDeg {
			s.MaxOutDeg = d
		}
		if g.OutDegree(id) == 0 && g.InDegree(id) == 0 {
			s.Isolated++
		}
		for _, e := range g.Out(id) {
			if e.W < s.MinW {
				s.MinW = e.W
			}
			if e.W > s.MaxW {
				s.MaxW = e.W
			}
			s.SumW += e.W
		}
	}
	if g.NumEdges() == 0 {
		s.MinW = 0
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d edges=%d weight=[%d,%d] isolated=%d maxOutDeg=%d",
		s.Nodes, s.Edges, s.MinW, s.MaxW, s.Isolated, s.MaxOutDeg)
}
