// Package landmark implements the landmark-based (ALT-style) lower-bound
// index of the paper (Section 4.2). A set L of landmark nodes is chosen
// offline by the farthest-point heuristic (paper footnote 3); for each
// landmark w the distances δ(w, ·) and δ(·, w) are precomputed. Triangle
// inequalities then give lower bounds on any shortest distance:
//
//	δ(u, v) ≥ δ(w, v) − δ(w, u)   and   δ(u, v) ≥ δ(u, w) − δ(v, w)
//
// The per-query bound to a destination category (the paper's Eq. 2) is
// supported through Bounds, which precomputes min_{v∈V_T} δ(w, v) and
// max_{v∈V_T} δ(v, w) once per query so each lb(u, V_T) evaluation costs
// O(|L|).
//
// The distances are stored node-major: node v's row is the 2·|L| entries
// δ(w_0,v)…δ(w_{L-1},v), δ(v,w_0)…δ(v,w_{L-1}), so every bound reads one
// contiguous row per node (128 bytes at 16 landmarks) instead of one entry
// from each of 2·|L| tables. Rows are grouped into pages of 64 nodes, each
// page its own allocation (or a slice of a loaded file): Repair copies only
// the pages that hold a node whose distances changed and shares the rest
// with the index it was derived from.
//
// Distances are stored as int32 to halve the index footprint (the paper
// reports O(|L|·n) space). Two sentinels keep the bounds admissible:
// unreachable pairs and distances that overflow int32 are never used in a
// way that could overestimate.
package landmark

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"kpj/internal/graph"
	"kpj/internal/sssp"
)

const (
	// unreach32 marks a node pair with no connecting path.
	unreach32 = math.MaxInt32
	// far32 marks a reachable pair whose distance does not fit in int32.
	// Such entries are usable only where an under-estimate is safe.
	far32 = math.MaxInt32 - 1

	// pageShift fixes the row page at 64 nodes: 8 KB at 16 landmarks.
	pageShift = 6
	pageNodes = 1 << pageShift
)

// Index is an immutable landmark distance index over one graph. It is safe
// for concurrent use.
type Index struct {
	g         *graph.Graph
	landmarks []graph.NodeID
	// pages[v>>pageShift] holds the rows of the pageNodes nodes in v's
	// block (the last page may hold fewer), width entries per row: row[i] =
	// δ(landmarks[i], v) and row[L+i] = δ(v, landmarks[i]).
	pages [][]int32
	width int    // 2·L
	shape shape  // summary of g, kept so Repair can derive its successor's
	fp    uint64 // content fingerprint, see Fingerprint
}

// row returns node v's width entries.
func (ix *Index) row(v graph.NodeID) []int32 {
	off := int(v&(pageNodes-1)) * ix.width
	return ix.pages[v>>pageShift][off : off+ix.width : off+ix.width]
}

// Build selects `count` landmarks with the farthest-point heuristic seeded
// by seed and precomputes their distance tables. count is clamped to the
// number of nodes. It returns an error only for an empty graph or
// non-positive count. Construction uses all cores.
func Build(g *graph.Graph, count int, seed int64) (*Index, error) {
	return BuildParallel(g, count, seed, 0)
}

// BuildParallel is Build with an explicit worker count (<= 0 means all
// cores). Only bench/kpjload passes a count (0); the argument is kept so
// the benchmark builds unchanged. The produced index is identical at every
// worker count: the farthest-point selection chain is inherently
// sequential, but each chosen landmark's forward Dijkstra doubles as its
// forward table (instead of being recomputed) and the backward Dijkstras
// run concurrently with the remaining selection rounds.
func BuildParallel(g *graph.Graph, count int, seed int64, parallelism int) (*Index, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("landmark: empty graph")
	}
	if count <= 0 {
		return nil, fmt.Errorf("landmark: count %d must be positive", count)
	}
	if count > n {
		count = n
	}
	rng := rand.New(rand.NewSource(seed))
	start := graph.NodeID(rng.Intn(n))

	// Backward tables are independent of the selection chain: launch each
	// the moment its landmark is known, bounded by the worker count.
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	bwd := make([][]int32, count)
	runBwd := func(i int, w graph.NodeID) {
		wg.Add(1)
		// Each backward Dijkstra writes only bwd[i]; the selection chain
		// never reads bwd, so the produced index is identical at every
		// parallelism level (TestBuildParallelDeterminism).
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			bwd[i] = compress(sssp.Dijkstra(g, graph.Backward, w))
		}()
	}

	// Farthest-point selection: the first landmark is the node farthest
	// from a random start; each next landmark is the node farthest from
	// the chosen set (min-distance to the set, unreachable = infinitely
	// far, ties broken by smaller id for determinism).
	distToSet := sssp.Dijkstra(g, graph.Forward, start)
	chosen := make([]graph.NodeID, 0, count)
	fwd := make([][]int32, 0, count)
	inSet := make([]bool, n)
	for len(chosen) < count {
		best := graph.NodeID(-1)
		var bestD graph.Weight = -1
		for v := 0; v < n; v++ {
			if inSet[v] {
				continue
			}
			if distToSet[v] > bestD {
				bestD = distToSet[v]
				best = graph.NodeID(v)
			}
		}
		if best < 0 {
			break // fewer distinct nodes than requested
		}
		chosen = append(chosen, best)
		inSet[best] = true
		from := sssp.Dijkstra(g, graph.Forward, best)
		fwd = append(fwd, compress(from)) // the selection Dijkstra IS the fwd table
		runBwd(len(chosen)-1, best)
		for v := 0; v < n; v++ {
			if from[v] < distToSet[v] {
				distToSet[v] = from[v]
			}
		}
	}
	wg.Wait()
	return newIndex(g, chosen, fwd, bwd[:len(chosen)]), nil
}

// BuildWithLandmarks builds the index for an explicit landmark set, running
// the 2·|L| independent table Dijkstras on all cores.
func BuildWithLandmarks(g *graph.Graph, landmarks []graph.NodeID) (*Index, error) {
	if len(landmarks) == 0 {
		return nil, fmt.Errorf("landmark: no landmarks")
	}
	for _, w := range landmarks {
		if w < 0 || int(w) >= g.NumNodes() {
			return nil, fmt.Errorf("landmark: %w: landmark %d", graph.ErrNodeRange, w)
		}
	}
	ids := append([]graph.NodeID(nil), landmarks...)
	fwd := make([][]int32, len(ids))
	bwd := make([][]int32, len(ids))
	cols := make([]int, 2*len(ids)) // table t: fwd[t], then bwd[t-len(ids)]
	for t := range cols {
		cols[t] = t
	}
	runJobs(cols, func(_ *repairScratch, t int) {
		// Each job writes only its own table; every table is a pure function
		// of (g, landmark), so the index is identical at every GOMAXPROCS
		// (checkRepairLaw holds every rebuild through here checksum-equal to
		// Repair's rows at GOMAXPROCS 1 and 4).
		if t < len(ids) {
			fwd[t] = compress(sssp.Dijkstra(g, graph.Forward, ids[t]))
		} else {
			bwd[t-len(ids)] = compress(sssp.Dijkstra(g, graph.Backward, ids[t-len(ids)]))
		}
	})
	return newIndex(g, ids, fwd, bwd), nil
}

// newIndex assembles an Index from prebuilt table-major tables (fwd[i][v]
// = δ(ids[i], v), bwd[i][v] = δ(v, ids[i])), scattering them into row
// pages, and stamps its content fingerprint. ids must already be validated
// and owned by the caller.
func newIndex(g *graph.Graph, ids []graph.NodeID, fwd, bwd [][]int32) *Index {
	n, L := g.NumNodes(), len(ids)
	w := 2 * L
	pages := make([][]int32, (n+pageNodes-1)>>pageShift)
	for p := range pages {
		lo := p << pageShift
		hi := min(lo+pageNodes, n)
		page := make([]int32, (hi-lo)*w)
		for i := 0; i < L; i++ {
			f, b := fwd[i][lo:hi], bwd[i][lo:hi]
			for k := range f {
				page[k*w+i] = f[k]
				page[k*w+L+i] = b[k]
			}
		}
		pages[p] = page
	}
	return assemble(g, shapeOf(g), ids, pages)
}

// assemble wraps row pages in an Index for a caller that already knows g's
// shape.
func assemble(g *graph.Graph, sh shape, ids []graph.NodeID, pages [][]int32) *Index {
	return &Index{g: g, landmarks: ids, pages: pages, width: 2 * len(ids), shape: sh, fp: contentFingerprint(sh, ids)}
}

// shape is the graph summary the fingerprint words are taken from.
type shape struct{ n, m, wsum uint64 }

// shapeOf summarizes g in one pass over its edges.
func shapeOf(g *graph.Graph) shape {
	s := graph.Summarize(g)
	return shape{uint64(s.Nodes), uint64(s.Edges), uint64(s.SumW)}
}

// apply returns the shape of the graph that results from the given net
// edge changes, in O(|changes|): the same words shapeOf would compute on
// the new graph.
func (s shape) apply(changes []graph.EdgeChange) shape {
	for _, c := range changes {
		switch {
		case c.Old == graph.Infinity: // insertion
			s.m++
			s.wsum += uint64(c.New)
		case c.New == graph.Infinity: // deletion
			s.m--
			s.wsum -= uint64(c.Old)
		default:
			s.wsum += uint64(c.New - c.Old)
		}
	}
	return s
}

// contentFingerprint hashes everything the distance tables are a pure
// function of: the graph shape (node/edge counts, total weight) and the
// landmark id sequence. FNV-1a over those words.
func contentFingerprint(sh shape, ids []graph.NodeID) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mix(sh.n)
	mix(sh.m)
	mix(sh.wsum)
	for _, w := range ids {
		mix(uint64(uint32(w)))
	}
	return h
}

// Fingerprint identifies the index contents: two indexes with the same
// fingerprint were built from a graph with the same shape summary and the
// same landmark sequence. WAL replay asserts it against each record, the
// router's update fence and divergence check compare it through wire.Gen,
// and a same-epoch resync accepts a snapshot only if its fingerprint
// differs. It is collision-tolerant: distinct graphs with identical
// node/edge counts and total weight are not distinguished (which is why
// pairing persisted tables with a graph in memory compares the adjacency
// itself, not this value — see kpj.Index.Rebind).
func (ix *Index) Fingerprint() uint64 { return ix.fp }

func compress(dist []graph.Weight) []int32 {
	out := make([]int32, len(dist))
	for i, d := range dist {
		out[i] = compress1(d)
	}
	return out
}

// compress1 stores one distance as an int32 entry.
func compress1(d graph.Weight) int32 {
	switch {
	case d >= graph.Infinity:
		return unreach32
	case d >= far32:
		return far32
	default:
		return int32(d)
	}
}

// Count returns the number of landmarks.
func (ix *Index) Count() int { return len(ix.landmarks) }

// Landmarks returns a copy of the landmark node ids.
func (ix *Index) Landmarks() []graph.NodeID {
	return append([]graph.NodeID(nil), ix.landmarks...)
}

// SizeBytes estimates the index memory footprint (the 2·|L|·n table).
func (ix *Index) SizeBytes() int64 {
	return int64(len(ix.landmarks)) * int64(ix.g.NumNodes()) * 8
}

// LowerBound returns an admissible lower bound on δ(u, v): the bound never
// exceeds the true shortest distance, and is graph.Infinity only when v is
// provably unreachable from u.
func (ix *Index) LowerBound(u, v graph.NodeID) graph.Weight {
	if u == v {
		return 0
	}
	L := len(ix.landmarks)
	ru, rv := ix.row(u), ix.row(v)
	fu, bu := ru[:L], ru[L:]
	fv, bv := rv[:len(fu)], rv[L:]
	bu, bv = bu[:len(fu)], bv[:len(fu)]
	var lb graph.Weight
	for i, du := range fu {
		// Forward table: δ(u,v) ≥ δ(w,v) − δ(w,u).
		dv := fv[i]
		if du < far32 { // exact δ(w,u)
			if dv == unreach32 {
				return graph.Infinity // w reaches u but not v ⇒ u cannot reach v
			}
			if t := graph.Weight(dv) - graph.Weight(du); t > lb {
				lb = t // dv may be far32 (an under-estimate): still admissible
			}
		}
		// Backward table: δ(u,v) ≥ δ(u,w) − δ(v,w).
		au, av := bu[i], bv[i]
		if av < far32 { // exact δ(v,w)
			if au == unreach32 {
				return graph.Infinity // v reaches w but u does not ⇒ u cannot reach v
			}
			if au < far32 {
				if t := graph.Weight(au) - graph.Weight(av); t > lb {
					lb = t
				}
			}
		}
	}
	return lb
}

// Bounds holds the per-query precomputation for lb(u, V_T) (paper Eq. 2):
// for each landmark w, minFwd = min_{v∈V_T} δ(w, v) and
// maxBwd = max_{v∈V_T} δ(v, w). Building it costs O(|L|·|V_T|), exactly the
// once-per-query cost the paper reports; each LowerBound call is O(|L|).
type Bounds struct {
	ix     *Index
	minFwd []int32
	maxBwd []int32
}

// BoundsToSet precomputes the Eq. 2 tables for a destination set into
// dst, reusing its slices when they hold L entries, and returns it; with
// no dst it fills a fresh Bounds. The engine passes tables its workspace
// owns, so a steady-state query builds them without allocating. dst is
// variadic only so that bench/kpjload's one-argument call keeps
// compiling. It panics on an empty target set (queries validate V_T
// before reaching here).
func (ix *Index) BoundsToSet(targets []graph.NodeID, dst ...*Bounds) *Bounds {
	if len(targets) == 0 {
		panic("landmark: empty target set")
	}
	var b *Bounds
	if len(dst) > 0 {
		b = dst[0]
	} else {
		b = new(Bounds)
	}
	L := len(ix.landmarks)
	b.ix = ix
	b.minFwd = resize(b.minFwd, L, unreach32)
	b.maxBwd = resize(b.maxBwd, L, 0) // δ ≥ 0, so 0 is the max's identity
	for _, v := range targets {
		r := ix.row(v)
		fwd, bwd := r[:L], r[L:]
		for i, d := range fwd {
			b.minFwd[i] = min(b.minFwd[i], d)
			b.maxBwd[i] = max(b.maxBwd[i], bwd[i])
		}
	}
	return b
}

// resize returns s with length n and every entry set to fill, reusing its
// storage when the capacity suffices.
func resize(s []int32, n int, fill int32) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = fill
	}
	return s
}

// LowerBound returns an admissible lower bound on min_{v∈V_T} δ(u, v).
func (b *Bounds) LowerBound(u graph.NodeID) graph.Weight {
	r := b.ix.row(u)
	minFwd := b.minFwd
	fwd, bwd := r[:len(minFwd)], r[len(minFwd):]
	maxBwd, bwd := b.maxBwd[:len(fwd)], bwd[:len(fwd)]
	var lb graph.Weight
	for i, du := range fwd {
		// Forward: min_v δ(u,v) ≥ min_v δ(w,v) − δ(w,u).
		if du < far32 {
			minF := minFwd[i]
			if minF == unreach32 {
				return graph.Infinity // w reaches u but no target
			}
			if t := graph.Weight(minF) - graph.Weight(du); t > lb {
				lb = t
			}
		}
		// Backward: min_v δ(u,v) ≥ δ(u,w) − max_v δ(v,w).
		maxB := maxBwd[i]
		if maxB < far32 { // every target's δ(v,w) is exact and finite
			au := bwd[i]
			if au == unreach32 {
				return graph.Infinity // all targets reach w, u does not
			}
			// au may be far32, an under-estimate: still admissible, and
			// keeping the term keeps the bound consistent. Dropping it at u
			// but not at a neighbour near 2³¹ would let h fall by more
			// than the edge weight, which growth on the monotone bucket
			// queue cannot take (internal/core TestGrowthHeuristicsConsistent).
			if t := graph.Weight(au) - graph.Weight(maxB); t > lb {
				lb = t
			}
		}
	}
	return lb
}
