// This file is the live-update substrate: a Delta batches mutations to an
// otherwise immutable graph, and Apply materializes them copy-on-write
// into a fresh Graph, leaving the original untouched for in-flight
// queries. An Effect summarizes what actually changed — the net per-edge
// weight transitions and the prior node sets of touched categories — in
// exactly the shape the landmark repair and cache invalidation layers
// need to scope their work.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"kpj/internal/fault"
)

// EdgeUpdate names a directed edge with a weight, used for weight changes
// and insertions.
type EdgeUpdate struct {
	U NodeID `json:"u"`
	V NodeID `json:"v"`
	W Weight `json:"w"`
}

// EdgeRef names a directed edge without a weight, used for deletions.
type EdgeRef struct {
	U NodeID `json:"u"`
	V NodeID `json:"v"`
}

// POIUpdate names one node's membership change in a category.
type POIUpdate struct {
	Category string `json:"category"`
	Node     NodeID `json:"node"`
}

// Delta is a batch of graph mutations: edge-weight changes, edge
// insertions and deletions, and POI (category membership) additions and
// removals. Operations are validated and applied in field order —
// SetWeights, Inserts, Deletes, AddPOIs, RemovePOIs — and within each
// field in slice order, against the evolving state, so a Delta may
// delete an edge and re-insert it at a new weight. The zero value is an
// empty (valid, no-op) delta. The JSON form is the wire format of the
// kpjserver /update endpoint and the kpjgen -churn stream.
type Delta struct {
	SetWeights []EdgeUpdate `json:"setWeights,omitempty"`
	Inserts    []EdgeUpdate `json:"inserts,omitempty"`
	Deletes    []EdgeRef    `json:"deletes,omitempty"`
	AddPOIs    []POIUpdate  `json:"addPOIs,omitempty"`
	RemovePOIs []POIUpdate  `json:"removePOIs,omitempty"`
}

// Empty reports whether the delta contains no operations.
func (d *Delta) Empty() bool {
	return d == nil || len(d.SetWeights) == 0 && len(d.Inserts) == 0 &&
		len(d.Deletes) == 0 && len(d.AddPOIs) == 0 && len(d.RemovePOIs) == 0
}

// Ops returns the total operation count.
func (d *Delta) Ops() int {
	if d == nil {
		return 0
	}
	return len(d.SetWeights) + len(d.Inserts) + len(d.Deletes) +
		len(d.AddPOIs) + len(d.RemovePOIs)
}

// Errors returned by Apply for invalid deltas. Every one wraps
// ErrBadDelta, so callers can classify "the delta was rejected" (the old
// graph remains the graph) with a single errors.Is.
var (
	ErrBadDelta     = errors.New("graph: invalid delta")
	ErrEdgeExists   = fmt.Errorf("%w: edge already exists", ErrBadDelta)
	ErrEdgeMissing  = fmt.Errorf("%w: edge does not exist", ErrBadDelta)
	ErrPOIExists    = fmt.Errorf("%w: node already in category", ErrBadDelta)
	ErrPOIMissing   = fmt.Errorf("%w: node not in category", ErrBadDelta)
	ErrEmptyCatName = fmt.Errorf("%w: empty category name", ErrBadDelta)
)

// EdgeChange is one net weight transition produced by a delta:
// Old == Infinity for an inserted edge, New == Infinity for a deleted
// one. Deltas whose operations cancel out (delete then re-insert at the
// old weight) produce no EdgeChange.
type EdgeChange struct {
	U, V     NodeID
	Old, New Weight
}

// Effect summarizes what a delta actually changed, for the layers that
// repair derived state: net edge transitions (landmark table damage
// detection) and the pre-delta node sets of every category whose
// membership changed (bound-table cache invalidation).
type Effect struct {
	// Changes holds the net edge-weight transitions in deterministic
	// (U, V) order.
	Changes []EdgeChange
	// OldCategorySets maps each category whose membership changed to its
	// pre-delta node set (nil for a category the delta created).
	OldCategorySets map[string][]NodeID
}

type edgeKey struct{ u, v NodeID }

// Apply materializes d over g into a fresh Graph, leaving g untouched —
// the copy-on-write discipline that lets an epoch-versioned view swap
// the result in while queries run against the original. The new graph
// owns what the delta changed and shares the rest with g (see patched):
// generations alias each other's arrays, which is safe because no graph
// is ever written after it is returned. It returns the new graph and an
// Effect describing the net changes. On any validation
// error (or injected fault at the fault.GraphApply point, polled once
// per operation) it returns (nil, nil, err) and g remains the only
// graph: a failed apply can never leave torn state behind.
//
// The node count is invariant: deltas mutate edges and categories, not
// the node set (POIs on new road segments are modelled at build time via
// SplitBiEdge).
func Apply(g *Graph, d *Delta) (*Graph, *Effect, error) {
	// Overlay of edge mutations accumulated while validating, keyed by
	// directed edge. present == false records a deletion.
	type slot struct {
		w       Weight
		present bool
	}
	overlay := make(map[edgeKey]slot)
	// current resolves an edge against base + overlay.
	current := func(u, v NodeID) (Weight, bool) {
		if s, ok := overlay[edgeKey{u, v}]; ok {
			return s.w, s.present
		}
		return g.HasEdge(u, v)
	}
	checkNode := func(v NodeID) error {
		if v < 0 || int(v) >= g.n {
			return fmt.Errorf("%w: %w: node %d (graph has %d nodes)", ErrBadDelta, ErrNodeRange, v, g.n)
		}
		return nil
	}
	checkWeight := func(u, v NodeID, w Weight) error {
		if w < 0 {
			return fmt.Errorf("%w: %w: edge (%d,%d) weight %d", ErrBadDelta, ErrNegativeWeight, u, v, w)
		}
		if w >= Infinity {
			return fmt.Errorf("%w: %w: edge (%d,%d) weight %d", ErrBadDelta, ErrWeightRange, u, v, w)
		}
		return nil
	}
	poll := func() error { return fault.Hit(fault.GraphApply) }

	for _, e := range d.SetWeights {
		if err := poll(); err != nil {
			return nil, nil, fmt.Errorf("graph: apply: %w", err)
		}
		if err := checkNode(e.U); err != nil {
			return nil, nil, err
		}
		if err := checkNode(e.V); err != nil {
			return nil, nil, err
		}
		if err := checkWeight(e.U, e.V, e.W); err != nil {
			return nil, nil, err
		}
		if _, ok := current(e.U, e.V); !ok {
			return nil, nil, fmt.Errorf("%w: setWeight (%d,%d)", ErrEdgeMissing, e.U, e.V)
		}
		overlay[edgeKey{e.U, e.V}] = slot{w: e.W, present: true}
	}
	for _, e := range d.Inserts {
		if err := poll(); err != nil {
			return nil, nil, fmt.Errorf("graph: apply: %w", err)
		}
		if err := checkNode(e.U); err != nil {
			return nil, nil, err
		}
		if err := checkNode(e.V); err != nil {
			return nil, nil, err
		}
		if err := checkWeight(e.U, e.V, e.W); err != nil {
			return nil, nil, err
		}
		if _, ok := current(e.U, e.V); ok {
			return nil, nil, fmt.Errorf("%w: insert (%d,%d)", ErrEdgeExists, e.U, e.V)
		}
		overlay[edgeKey{e.U, e.V}] = slot{w: e.W, present: true}
	}
	for _, e := range d.Deletes {
		if err := poll(); err != nil {
			return nil, nil, fmt.Errorf("graph: apply: %w", err)
		}
		if err := checkNode(e.U); err != nil {
			return nil, nil, err
		}
		if err := checkNode(e.V); err != nil {
			return nil, nil, err
		}
		if _, ok := current(e.U, e.V); !ok {
			return nil, nil, fmt.Errorf("%w: delete (%d,%d)", ErrEdgeMissing, e.U, e.V)
		}
		overlay[edgeKey{e.U, e.V}] = slot{present: false}
	}

	// Category overlay: copy-on-write per touched category.
	cats := make(map[string][]NodeID, len(d.AddPOIs)+len(d.RemovePOIs))
	oldSets := make(map[string][]NodeID)
	curCat := func(name string) ([]NodeID, bool) {
		if s, ok := cats[name]; ok {
			return s, true
		}
		s, ok := g.categories[name]
		return s, ok
	}
	touch := func(name string) {
		if _, seen := oldSets[name]; !seen {
			if old, ok := g.categories[name]; ok {
				oldSets[name] = old
			} else {
				oldSets[name] = nil
			}
		}
	}
	for _, p := range d.AddPOIs {
		if err := poll(); err != nil {
			return nil, nil, fmt.Errorf("graph: apply: %w", err)
		}
		if p.Category == "" {
			return nil, nil, fmt.Errorf("%w: addPOI node %d", ErrEmptyCatName, p.Node)
		}
		if err := checkNode(p.Node); err != nil {
			return nil, nil, err
		}
		set, _ := curCat(p.Category)
		if containsNode(set, p.Node) {
			return nil, nil, fmt.Errorf("%w: addPOI %q node %d", ErrPOIExists, p.Category, p.Node)
		}
		touch(p.Category)
		cats[p.Category] = insertNode(set, p.Node)
	}
	for _, p := range d.RemovePOIs {
		if err := poll(); err != nil {
			return nil, nil, fmt.Errorf("graph: apply: %w", err)
		}
		if p.Category == "" {
			return nil, nil, fmt.Errorf("%w: removePOI node %d", ErrEmptyCatName, p.Node)
		}
		if err := checkNode(p.Node); err != nil {
			return nil, nil, err
		}
		set, ok := curCat(p.Category)
		if !ok || !containsNode(set, p.Node) {
			return nil, nil, fmt.Errorf("%w: removePOI %q node %d", ErrPOIMissing, p.Category, p.Node)
		}
		touch(p.Category)
		cats[p.Category] = removeNode(set, p.Node)
	}

	// Net edge transitions, dropping operations that cancelled out.
	changes := make([]EdgeChange, 0, len(overlay))
	for k, s := range overlay {
		oldW, hadOld := g.HasEdge(k.u, k.v)
		if !hadOld {
			oldW = Infinity
		}
		newW := s.w
		if !s.present {
			newW = Infinity
		}
		if oldW == newW {
			continue
		}
		changes = append(changes, EdgeChange{U: k.u, V: k.v, Old: oldW, New: newW})
	}
	sortChanges(changes)
	// Category touches that cancelled out (add then remove the same node)
	// still count as touched: the intermediate states were validated
	// against, and invalidating an unchanged set is merely conservative.

	// Validation resolved edges against the out-adjacency only; patching
	// also locates them in the in-adjacency, which a CSR loaded from a
	// file (FromCSR checks each side alone) is not known to mirror.
	for _, c := range changes {
		if c.Old == Infinity {
			continue
		}
		if _, ok := findEdge(g.In(c.V), c.U); !ok {
			return nil, nil, fmt.Errorf("graph: apply: %w: edge (%d,%d) missing from the in-adjacency", ErrBadCSR, c.U, c.V)
		}
	}
	ng := g.patched(changes)

	// Categories: share untouched sets with the old graph (both are
	// immutable after this point), replace touched ones.
	ng.categories = make(map[string][]NodeID, len(g.categories)+len(cats))
	for name, set := range g.categories {
		ng.categories[name] = set
	}
	for name, set := range cats {
		if len(set) == 0 {
			delete(ng.categories, name)
			continue
		}
		ng.categories[name] = set
	}
	ng.catNames = make([]string, 0, len(ng.categories))
	for name := range ng.categories {
		ng.catNames = append(ng.catNames, name)
	}
	sortStrings(ng.catNames)

	return ng, &Effect{Changes: changes, OldCategorySets: oldSets}, nil
}

// patched returns g's successor under the net edge transitions cs, which
// must be sorted by (U, V) and name, unless inserted, edges present in
// both adjacencies. The arrays equal the ones a Builder would produce for
// the mutated edge list, at a cost that follows cs: no change shares all
// four arrays with g; pure reweights share both head arrays and overwrite
// the changed entries in one copy of each adjacency; inserts and deletes
// rewrite only the touched rows (mergeRows). Categories are left to the
// caller.
func (g *Graph) patched(cs []EdgeChange) *Graph {
	ng := &Graph{
		n: g.n, m: g.m,
		outHead: g.outHead, outAdj: g.outAdj,
		inHead: g.inHead, inAdj: g.inAdj,
		maxW: g.maxW,
	}
	if len(cs) == 0 {
		return ng
	}
	structural := false
	// maxW is maintained exactly: a new weight at or above the old maximum
	// settles it, otherwise only an edge that carried the maximum getting
	// lighter or deleted forces a rescan.
	heaviest, lostMax := Weight(-1), false
	for _, c := range cs {
		switch {
		case c.Old == Infinity:
			ng.m++
			structural = true
		case c.New == Infinity:
			ng.m--
			structural = true
		}
		if c.New != Infinity && c.New > heaviest {
			heaviest = c.New
		}
		if c.Old == g.maxW {
			lostMax = true
		}
	}

	if structural {
		ng.outHead, ng.outAdj = mergeRows(g.outHead, g.outAdj, cs, ng.m)
		byHead := make([]EdgeChange, len(cs))
		for i, c := range cs {
			byHead[i] = EdgeChange{U: c.V, V: c.U, Old: c.Old, New: c.New}
		}
		sortChanges(byHead)
		ng.inHead, ng.inAdj = mergeRows(g.inHead, g.inAdj, byHead, ng.m)
	} else {
		ng.outAdj = make([]Edge, len(g.outAdj))
		copy(ng.outAdj, g.outAdj)
		ng.inAdj = make([]Edge, len(g.inAdj))
		copy(ng.inAdj, g.inAdj)
		for _, c := range cs {
			i, _ := findEdge(g.Out(c.U), c.V)
			ng.outAdj[int(g.outHead[c.U])+i].W = c.New
			i, _ = findEdge(g.In(c.V), c.U)
			ng.inAdj[int(g.inHead[c.V])+i].W = c.New
		}
	}

	if heaviest >= g.maxW {
		ng.maxW = heaviest
	} else if lostMax {
		ng.maxW = 0
		for _, e := range ng.outAdj {
			if e.W > ng.maxW {
				ng.maxW = e.W
			}
		}
	}
	return ng
}

// mergeRows rewrites one CSR direction (m entries afterwards) under cs,
// sorted by (U, V) with U the row and V the column: heads move by the
// running degree delta, the spans between touched rows are copied in
// bulk, and each touched row is merged with its changes, so rows stay
// sorted by To exactly as buildCSR leaves them.
func mergeRows(head []int32, adj []Edge, cs []EdgeChange, m int) ([]int32, []Edge) {
	n := len(head) - 1
	nh := make([]int32, n+1)
	na := make([]Edge, m)
	row := 0         // first row whose new head is not yet written
	src, dst := 0, 0 // next unread entry of adj, next unwritten entry of na
	for i := 0; i < len(cs); {
		u := int(cs[i].U)
		for shift := int32(dst - src); row <= u; row++ {
			nh[row] = head[row] + shift
		}
		dst += copy(na[dst:], adj[src:head[u]])
		src = int(head[u])
		end := int(head[u+1])
		for ; i < len(cs) && int(cs[i].U) == u; i++ {
			c := cs[i]
			for src < end && adj[src].To < c.V {
				na[dst] = adj[src]
				dst++
				src++
			}
			if c.Old != Infinity {
				src++ // the entry being reweighted or deleted
			}
			if c.New != Infinity {
				na[dst] = Edge{To: c.V, W: c.New}
				dst++
			}
		}
		dst += copy(na[dst:], adj[src:end])
		src = end
	}
	for shift := int32(dst - src); row <= n; row++ {
		nh[row] = head[row] + shift
	}
	copy(na[dst:], adj[src:])
	return nh, na
}

// containsNode reports membership in a sorted node set.
func containsNode(set []NodeID, v NodeID) bool {
	lo, hi := 0, len(set)
	for lo < hi {
		mid := (lo + hi) / 2
		if set[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(set) && set[lo] == v
}

// insertNode returns a fresh sorted set with v added.
func insertNode(set []NodeID, v NodeID) []NodeID {
	out := make([]NodeID, 0, len(set)+1)
	placed := false
	for _, x := range set {
		if !placed && v < x {
			out = append(out, v)
			placed = true
		}
		out = append(out, x)
	}
	if !placed {
		out = append(out, v)
	}
	return out
}

// removeNode returns a fresh sorted set with v removed.
func removeNode(set []NodeID, v NodeID) []NodeID {
	out := make([]NodeID, 0, len(set)-1)
	for _, x := range set {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// sortChanges orders cs by (U, V).
func sortChanges(cs []EdgeChange) {
	slices.SortFunc(cs, func(a, b EdgeChange) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}
