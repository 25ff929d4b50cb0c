package core

import "kpj/internal/graph"

// VertexID identifies a vertex of a pseudoTree. The paper distinguishes
// pseudo-tree *vertices* from graph *nodes* because the same graph node may
// appear at several tree positions (Section 3).
type VertexID = int32

// pseudoTree is the trie of already-output paths (paper Section 3). Every
// vertex doubles as a subspace of the best-first paradigm (Section 4):
// vertex u represents the subspace ⟨P_{root,u}, X_u⟩ where P_{root,u} is
// the tree path from the root to u and X_u is exactly the set of u's tree
// child edges — the edges consumed by previously output paths. This
// identification means no explicit excluded-edge sets are stored.
//
// All layout is struct-of-arrays indexed by dense vertex id; the X_u child
// sets live in one index-linked arena (kidHead/kidNode/kidNext) instead of
// a slice-of-slices, so inserting a path never allocates once the arena has
// reached its steady-state capacity and membership walks are array reads,
// not pointer chases.
type pseudoTree struct {
	node   []graph.NodeID // vertex -> space node
	parent []VertexID     // vertex -> parent vertex (-1 at root)
	plen   []graph.Weight // vertex -> length of the root→vertex prefix

	// X_u arena: kidHead[u] is u's first child slot (-1 when X_u is empty),
	// kidNext chains the remaining slots, kidNode holds the excluded node.
	kidHead []int32
	kidNode []graph.NodeID
	kidNext []int32
}

// newPseudoTree returns a tree holding only the root vertex (vertex 0) for
// the given space root node — the paper's PT_0.
func newPseudoTree(root graph.NodeID) *pseudoTree {
	t := &pseudoTree{}
	t.Reset(root)
	return t
}

// Reset re-roots the tree at the given space node, dropping every vertex
// but retaining all storage. Engines reuse one workspace-owned tree across
// queries so the steady state inserts without allocating (pinned by
// TestSteadyStateQueryAllocs).
func (t *pseudoTree) Reset(root graph.NodeID) {
	t.node = append(t.node[:0], root)
	t.parent = append(t.parent[:0], -1)
	t.plen = append(t.plen[:0], 0)
	t.kidHead = append(t.kidHead[:0], -1)
	t.kidNode = t.kidNode[:0]
	t.kidNext = t.kidNext[:0]
}

// Len returns the number of vertices.
func (t *pseudoTree) Len() int { return len(t.node) }

// Node returns the space node of vertex u.
func (t *pseudoTree) Node(u VertexID) graph.NodeID { return t.node[u] }

// PrefixLen returns the length of the root→u tree path.
func (t *pseudoTree) PrefixLen(u VertexID) graph.Weight { return t.plen[u] }

// Parent returns u's parent vertex, -1 for the root.
func (t *pseudoTree) Parent(u VertexID) VertexID { return t.parent[u] }

// ExcludedHas reports whether v is in X_u: the space nodes reached by u's
// tree child edges, i.e. the first hops banned in u's subspace.
func (t *pseudoTree) ExcludedHas(u VertexID, v graph.NodeID) bool {
	for s := t.kidHead[u]; s >= 0; s = t.kidNext[s] {
		if t.kidNode[s] == v {
			return true
		}
	}
	return false
}

// ExcludedLen returns |X_u|.
func (t *pseudoTree) ExcludedLen(u VertexID) int {
	n := 0
	for s := t.kidHead[u]; s >= 0; s = t.kidNext[s] {
		n++
	}
	return n
}

// PrefixNodes calls visit for every space node on the root→u tree path,
// from u back to the root (u itself included). Like Space.expand's yield,
// visit is only called, never stored, so callers' closures stay off the heap.
func (t *pseudoTree) PrefixNodes(u VertexID, visit func(graph.NodeID)) {
	for v := u; v >= 0; v = t.parent[v] {
		visit(t.node[v])
	}
}

// AppendPrefixPath appends the root→u node sequence in forward order to dst
// and returns the extended slice (reusing dst's capacity).
func (t *pseudoTree) AppendPrefixPath(dst []graph.NodeID, u VertexID) []graph.NodeID {
	base := len(dst)
	for v := u; v >= 0; v = t.parent[v] {
		dst = append(dst, t.node[v])
	}
	rev := dst[base:]
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return dst
}

// PrefixPath returns the root→u node sequence in forward order as a fresh
// slice. Hot paths use AppendPrefixPath with a reused buffer instead.
func (t *pseudoTree) PrefixPath(u VertexID) []graph.NodeID {
	return t.AppendPrefixPath(nil, u)
}

// InsertSuffix records an output path that deviates from the tree at
// vertex d: suffix is the node sequence after d's node (so the full path is
// the root→d prefix + suffix), and suffixLens[i] is the length of the full
// path up to and including suffix[i]. It creates one new vertex per suffix
// node, linking d→suffix[0]→…, and returns the first new vertex id; the
// created ids are the consecutive range [first, first+len(suffix)). This is
// the pseudo-tree update of the paper's Alg. 1 line 5 / Alg. 2 line 8.
func (t *pseudoTree) InsertSuffix(d VertexID, suffix []graph.NodeID, suffixLens []graph.Weight) (first VertexID) {
	if len(suffix) != len(suffixLens) {
		panic("core: suffix/lengths size mismatch")
	}
	first = VertexID(len(t.node))
	prev := d
	for i, nd := range suffix {
		u := VertexID(len(t.node))
		t.node = append(t.node, nd)
		t.parent = append(t.parent, prev)
		t.plen = append(t.plen, suffixLens[i])
		t.kidHead = append(t.kidHead, -1)
		slot := int32(len(t.kidNode))
		t.kidNode = append(t.kidNode, nd)
		t.kidNext = append(t.kidNext, t.kidHead[prev])
		t.kidHead[prev] = slot
		prev = u
	}
	return first
}
