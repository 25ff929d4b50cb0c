package kpj

import (
	"kpj/internal/graph"
	"kpj/internal/landmark"
)

// Delta is a batch of live graph updates: edge weight changes, edge
// insertions and deletions, and category (POI set) membership changes.
// Operations apply in field order — SetWeights, Inserts, Deletes,
// AddPOIs, RemovePOIs — and every operation is validated against the
// state left by its predecessors; any invalid operation fails the whole
// delta and leaves the original graph untouched. Deltas never change the
// node count: the node set of a road network is stable, it is weights
// (traffic), segments (closures) and POIs (openings) that churn.
type Delta = graph.Delta

// EdgeUpdate names an edge (u, v) together with a weight, for Delta
// weight changes and insertions.
type EdgeUpdate = graph.EdgeUpdate

// EdgeRef names an edge (u, v), for Delta deletions.
type EdgeRef = graph.EdgeRef

// POIUpdate names one node's membership change in a category.
type POIUpdate = graph.POIUpdate

// ErrBadDelta is wrapped by every delta-validation failure from
// WithDelta and Index.Apply.
var ErrBadDelta = graph.ErrBadDelta

// RepairStats reports what an Index.Apply did to the landmark tables:
// how many the delta damaged and were repaired versus shared with the
// previous generation, and how many nodes the repairs settled.
type RepairStats = landmark.RepairStats

// WithDelta returns the graph that results from applying d. The receiver
// is immutable and remains fully usable — in-flight queries, indexes and
// cached bound tables bound to it stay consistent; the returned graph is
// an independent new generation sharing untouched category storage.
func (g *Graph) WithDelta(d *Delta) (*Graph, error) {
	ng, _, err := graph.Apply(g.g, d)
	if err != nil {
		return nil, err
	}
	return newGraph(ng), nil
}

// Applied is the result of Index.Apply: the new graph generation, its
// repaired index, and the repair statistics. The old graph and index are
// untouched, so a server can atomically publish the pair while draining
// queries pinned to the previous epoch.
type Applied struct {
	Graph *Graph
	Index *Index
	Stats RepairStats

	oldFP   uint64
	dirty   []bool
	oldSets map[string][]NodeID
}

// Apply produces the graph and index for the generation after d. Every
// landmark table the delta damaged is repaired over the region whose
// distances can change, on all cores; the rest are shared with ix. The
// produced index is row-for-row identical to rebuilding from scratch
// over the new graph with the same landmarks.
func (ix *Index) Apply(d *Delta) (*Applied, error) {
	ng, eff, err := graph.Apply(ix.ix.Graph(), d)
	if err != nil {
		return nil, err
	}
	nix, dirty, stats, err := landmark.Repair(ng, ix.ix, eff.Changes, 0)
	if err != nil {
		return nil, err
	}
	return &Applied{
		Graph:   newGraph(ng),
		Index:   &Index{ix: nix},
		Stats:   stats,
		oldFP:   ix.ix.Fingerprint(),
		dirty:   dirty,
		oldSets: eff.OldCategorySets,
	}, nil
}

// RekeyBounds migrates c's cached bound tables from the pre-Apply index
// generation to the new one: tables whose node sets the delta did not
// touch survive the epoch bump warm (re-keyed to the new fingerprint),
// while tables over a dirty node — one whose landmark distances changed —
// or over the old node set of a category whose POI membership changed are
// dropped. It returns (migrated, dropped). Call it once per Apply, after
// publishing the new epoch; in-flight queries on the old epoch are
// unaffected, they simply stop hitting.
func (a *Applied) RekeyBounds(c *BoundsCache) (migrated, dropped int) {
	if c == nil {
		return 0, 0
	}
	return c.c.Rekey(a.oldFP, a.Index.ix, func(nodes []NodeID) bool {
		for _, v := range nodes {
			if a.dirty[v] {
				return true
			}
		}
		// Pure membership test — the predicate is true iff any old
		// category set matches, regardless of the map's iteration order
		// (TestApplyRekeyBounds).
		for _, oldSet := range a.oldSets {
			if len(oldSet) != len(nodes) {
				continue
			}
			same := true
			for i := range nodes {
				if nodes[i] != oldSet[i] {
					same = false
					break
				}
			}
			if same {
				return true
			}
		}
		return false
	})
}

// Landmarks returns the landmark node ids, in table order. The returned
// slice must not be modified.
func (ix *Index) Landmarks() []NodeID { return ix.ix.Landmarks() }

// TablesChecksum hashes every distance entry of the index. Two indexes
// over equal graphs with equal landmark sets have equal checksums exactly
// when their tables are entry-for-entry identical — the deep-equality
// probe for validating incremental repair against a from-scratch build.
func (ix *Index) TablesChecksum() uint64 { return ix.ix.TablesChecksum() }

// BuildIndexWithLandmarks builds an index with an explicit landmark set
// instead of the farthest-point selection — the from-scratch reference
// for an incrementally repaired index, and the way to carry one graph
// generation's landmark choice onto another.
func BuildIndexWithLandmarks(g *Graph, landmarks []NodeID) (*Index, error) {
	ix, err := landmark.BuildWithLandmarks(g.g, landmarks)
	if err != nil {
		return nil, err
	}
	return &Index{ix: ix}, nil
}
