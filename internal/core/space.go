// Package core implements the paper's primary contribution: the best-first
// subspace paradigm for top-k shortest path join (Section 4) and the
// iteratively bounding approaches with partial and incremental shortest
// path trees (Section 5), plus the extensions of Section 6 (multiple source
// nodes, operation without landmarks).
//
// All algorithms run over a Space: the query-transformed graph G_Q of
// Section 3, in which a virtual target node is connected from every
// destination node with weight 0 (and, for GKPJ, a virtual source node is
// connected to every source node with weight 0). The Space is a view — the
// underlying graph is never copied per query.
package core

import (
	"fmt"

	"kpj/internal/graph"
)

// Space is the per-query search space: paths grow from Root and end at
// Goal, expanding edges in Dir over the underlying graph plus the virtual
// node adjacencies. For forward-space algorithms (DA, DA-SPT, BestFirst,
// IterBound, IterBound-SPT_P) Dir is Forward, Root is the source side and
// Goal the virtual target. IterBound-SPT_I uses the reverse space
// (Section 5.3): Dir is Backward, Root is the virtual target, and Goal is
// the source side; a Root→Goal space path read backwards is the physical
// s→V_T path.
type Space struct {
	G   *graph.Graph
	Dir graph.Direction

	Root graph.NodeID // where every enumerated path starts
	Goal graph.NodeID // where every enumerated path ends

	rootMembers []graph.NodeID // expansion of a virtual Root (weight 0)

	// goalMember is an epoch-stamped membership array over physical nodes:
	// v has a 0-edge v→Goal iff goalMember[v] == goalEpoch. Stamping lets a
	// workspace-owned array be re-seeded in O(|targets|) per query instead
	// of O(n). Nil when Goal is physical.
	goalMember []uint32
	goalEpoch  uint32
}

// Virtual node ids: the V_T-side virtual node is n, the V_S-side one n+1.
// Both ids are always reserved so that Workspace arrays have a fixed size
// N = n+2 regardless of query shape.
func (sp *Space) vtNode() graph.NodeID { return graph.NodeID(sp.G.NumNodes()) }
func (sp *Space) vsNode() graph.NodeID { return graph.NodeID(sp.G.NumNodes() + 1) }

// numSpaceNodes returns the node-id space size (physical nodes + 2 virtual
// slots); Workspace arrays are sized by it.
func (sp *Space) numSpaceNodes() int { return sp.G.NumNodes() + 2 }

// IsVirtual reports whether a space node id is one of the virtual slots.
func (sp *Space) IsVirtual(v graph.NodeID) bool { return int(v) >= sp.G.NumNodes() }

// initForward builds the space used by the forward algorithms into
// caller-owned storage: paths from the source side (one physical source,
// or a virtual source covering several) to the virtual target covering
// targets. stamp is the goal-membership array (its entries equal to epoch mark members), so a
// workspace can recycle the array across queries with an epoch bump.
func (sp *Space) initForward(g *graph.Graph, sources, targets []graph.NodeID, stamp []uint32, epoch uint32) {
	*sp = Space{G: g, Dir: graph.Forward}
	sp.Goal = sp.vtNode()
	sp.goalMember, sp.goalEpoch = stampMembers(stamp, epoch, targets)
	if len(sources) == 1 {
		sp.Root = sources[0]
	} else {
		sp.Root = sp.vsNode()
		sp.rootMembers = sources
	}
}

// initReverse builds the space used by IterBound-SPT_I into caller-owned
// storage: paths from the virtual target (root, expanding to every target
// with weight 0) backwards to the source side; see initForward.
func (sp *Space) initReverse(g *graph.Graph, sources, targets []graph.NodeID, stamp []uint32, epoch uint32) {
	*sp = Space{G: g, Dir: graph.Backward}
	sp.Root = sp.vtNode()
	sp.rootMembers = targets
	if len(sources) == 1 {
		sp.Goal = sources[0]
	} else {
		sp.Goal = sp.vsNode()
		sp.goalMember, sp.goalEpoch = stampMembers(stamp, epoch, sources)
	}
}

func stampMembers(stamp []uint32, epoch uint32, nodes []graph.NodeID) ([]uint32, uint32) {
	for _, v := range nodes {
		stamp[v] = epoch
	}
	return stamp, epoch
}

// expand calls yield(to, w) for every outgoing space edge of v, in
// deterministic order. The goal node never expands: paths end there (a
// physical goal's further graph edges can only produce non-simple
// extensions, so they are never part of an enumerated path).
//
// expand only calls yield and must never store it: the search loops pass
// closures over their locals, which stay off the heap only while yield
// does not escape. TestSteadyStateQueryAllocs fails the moment it does.
func (sp *Space) expand(v graph.NodeID, yield func(to graph.NodeID, w graph.Weight)) {
	if v == sp.Goal {
		return
	}
	if sp.IsVirtual(v) {
		if v == sp.Root {
			for _, u := range sp.rootMembers {
				yield(u, 0)
			}
		}
		return
	}
	for _, e := range sp.G.Edges(sp.Dir, v) {
		yield(e.To, e.W)
	}
	if sp.goalMember != nil && sp.goalMember[v] == sp.goalEpoch {
		yield(sp.Goal, 0)
	}
}

// Path is one result path in the original graph: the physical node
// sequence from a source to a destination node and its length. A
// single-node path (source already in the destination category) has
// Length 0.
type Path struct {
	Nodes  []graph.NodeID
	Length graph.Weight
}

func (p Path) String() string {
	return fmt.Sprintf("len=%d nodes=%v", p.Length, p.Nodes)
}

// materializeInto appends the physical node sequence of a space path
// (Root→…→Goal) to dst — virtual endpoints stripped and, for a reverse
// space, the order flipped so it always reads source→destination — and
// returns the extended slice. Hot paths pass arena- or scratch-backed dst
// with room for len(spaceNodes) more nodes, so the appends never
// reallocate.
func (sp *Space) materializeInto(dst, spaceNodes []graph.NodeID) []graph.NodeID {
	base := len(dst)
	for _, v := range spaceNodes {
		if !sp.IsVirtual(v) {
			dst = append(dst, v)
		}
	}
	if sp.Dir == graph.Backward {
		seg := dst[base:]
		for i, j := 0, len(seg)-1; i < j; i, j = i+1, j-1 {
			seg[i], seg[j] = seg[j], seg[i]
		}
	}
	return dst
}
