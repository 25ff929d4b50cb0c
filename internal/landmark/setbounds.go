package landmark

import "kpj/internal/graph"

// FromBounds holds the per-query precomputation for lower-bounding
// min_{u∈S} δ(u, v) — the distance from the nearest node of a source set S
// to v. It is the mirror image of Bounds and is used by the reverse-space
// search (IterBound-SPT_I) when processing GKPJ queries, where the goal is
// the virtual source covering category S (paper Section 6).
type FromBounds struct {
	ix     *Index
	maxFwd []int32 // per landmark w: max_{u∈S} δ(w, u)
	minBwd []int32 // per landmark w: min_{u∈S} δ(u, w)
}

// BoundsFromSet precomputes the tables for the source set. It panics on an
// empty set (queries validate before reaching here).
func (ix *Index) BoundsFromSet(sources []graph.NodeID) *FromBounds {
	if len(sources) == 0 {
		panic("landmark: empty source set")
	}
	b := &FromBounds{
		ix:     ix,
		maxFwd: make([]int32, len(ix.landmarks)),
		minBwd: make([]int32, len(ix.landmarks)),
	}
	for i := range ix.landmarks {
		maxF, minB := int32(0), int32(unreach32)
		for _, u := range sources {
			if d := ix.fwd[i][u]; d > maxF {
				maxF = d
			}
			if d := ix.bwd[i][u]; d < minB {
				minB = d
			}
		}
		b.maxFwd[i] = maxF
		b.minBwd[i] = minB
	}
	return b
}

// LowerBound returns an admissible lower bound on min_{u∈S} δ(u, v).
func (b *FromBounds) LowerBound(v graph.NodeID) graph.Weight {
	ix := b.ix
	var lb graph.Weight
	for i := range ix.landmarks {
		// Forward: min_u δ(u,v) ≥ δ(w,v) − max_u δ(w,u); requires every
		// δ(w,u) exact. If additionally δ(w,v) = ∞, no source reaches v.
		maxF := b.maxFwd[i]
		if maxF < far32 {
			dv := ix.fwd[i][v]
			if dv == unreach32 {
				return graph.Infinity
			}
			if t := graph.Weight(dv) - graph.Weight(maxF); t > lb {
				lb = t
			}
		}
		// Backward: min_u δ(u,v) ≥ min_u δ(u,w) − δ(v,w); requires δ(v,w)
		// exact. If additionally no source reaches w, v is unreachable
		// from every source (u→v→w would reach w).
		dv := ix.bwd[i][v]
		if dv < far32 {
			minB := b.minBwd[i]
			if minB == unreach32 {
				return graph.Infinity
			}
			if t := graph.Weight(minB) - graph.Weight(dv); t > lb {
				lb = t
			}
		}
	}
	return lb
}
