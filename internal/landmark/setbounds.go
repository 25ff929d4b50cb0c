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
	L := len(ix.landmarks)
	b := &FromBounds{
		ix:     ix,
		maxFwd: make([]int32, L), // δ ≥ 0, so 0 is the max's identity
		minBwd: make([]int32, L),
	}
	for i := range b.minBwd {
		b.minBwd[i] = unreach32
	}
	for _, u := range sources {
		r := ix.row(u)
		fwd, bwd := r[:L], r[L:]
		for i, d := range fwd {
			b.maxFwd[i] = max(b.maxFwd[i], d)
			b.minBwd[i] = min(b.minBwd[i], bwd[i])
		}
	}
	return b
}

// LowerBound returns an admissible lower bound on min_{u∈S} δ(u, v).
func (b *FromBounds) LowerBound(v graph.NodeID) graph.Weight {
	r := b.ix.row(v)
	maxFwd := b.maxFwd
	fwd, bwd := r[:len(maxFwd)], r[len(maxFwd):]
	minBwd, bwd := b.minBwd[:len(fwd)], bwd[:len(fwd)]
	var lb graph.Weight
	for i, maxF := range maxFwd {
		// Forward: min_u δ(u,v) ≥ δ(w,v) − max_u δ(w,u); requires every
		// δ(w,u) exact. If additionally δ(w,v) = ∞, no source reaches v.
		if maxF < far32 {
			dv := fwd[i]
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
		dv := bwd[i]
		if dv < far32 {
			minB := minBwd[i]
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
