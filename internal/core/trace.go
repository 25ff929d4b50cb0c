package core

import "kpj/internal/graph"

// EventKind classifies engine trace events.
type EventKind int

const (
	// EventEmit: a result path was output (Length = its length).
	EventEmit EventKind = iota
	// EventEnqueue: a fresh subspace entered the queue with lower bound
	// Length (after the ω(P) floor of Alg. 2 line 9); in the eager rows
	// (DA, DA-SPT) Length is the subspace's exact shortest length.
	EventEnqueue
	// EventResolve: a bounded search ran against threshold Tau and ended
	// with Status (Found: Length = the path length; Exceeded: the
	// subspace re-entered the queue with bound Tau; Empty: dropped).
	EventResolve
	// EventDrop: a fresh subspace was proven empty by CompLB and never
	// enqueued.
	EventDrop
)

func (k EventKind) String() string {
	switch k {
	case EventEmit:
		return "emit"
	case EventEnqueue:
		return "enqueue"
	case EventResolve:
		return "resolve"
	default:
		return "drop"
	}
}

// Event is one step of a query's execution, as observed by a TraceFunc.
// It makes the best-first exploration of Figs. 3-4 visible: which
// subspaces were divided, which were pruned by bounds, and how τ grew.
type Event struct {
	Kind   EventKind
	Vertex VertexID     // pseudo-tree vertex of the subspace
	Node   graph.NodeID // its space node
	Length graph.Weight // path length or lower bound (see Kind)
	Tau    graph.Weight // threshold used (EventResolve only)
	Status SearchStatus // outcome (EventResolve only)
}

// TraceFunc receives engine events. Tracing is per-query (set via
// Options.Trace) and adds no cost when unset.
type TraceFunc func(Event)

func (e *engine) trace(ev Event) {
	if e.onEvent != nil {
		e.onEvent(ev)
	}
}
