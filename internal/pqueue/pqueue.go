// Package pqueue provides the priority queues the KPJ algorithms need:
//
//   - Heap[T]: a plain generic binary min-heap, used for the subspace queue
//     Q of the best-first paradigm (paper Alg. 2 and Alg. 4).
//   - NodeQueue: an indexed (decrease-key) min-heap over dense node ids with
//     epoch-based O(1) reset, used only by the subspace searches, whose
//     keys may fall below the last popped one. The epoch trick avoids O(n)
//     clearing between the O(k·n) per-subspace searches a single query
//     performs.
//   - BucketQueue: a monotone radix queue with lazy insertion, used by
//     every label-setting search whose popped keys never decrease —
//     Dijkstra and the growth of the shortest path trees — for any
//     non-negative int64 key.
package pqueue

// Heap is a binary min-heap ordered by the provided less function.
// The zero value is not usable; create one with NewHeap.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// NewHeap returns an empty heap ordered by less. less runs on every sift,
// so it must not allocate (the engine installs capture-free literals).
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of items in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push adds an item.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Top returns the minimum item without removing it. It panics on an empty
// heap; callers check Len first.
func (h *Heap[T]) Top() T { return h.items[0] }

// Pop removes and returns the minimum item. It panics on an empty heap.
func (h *Heap[T]) Pop() T {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero // release references for GC
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

// Reset empties the heap, retaining capacity: a reused heap pushes without
// allocating once it has been as full before (internal/core's
// TestSteadyStateQueryAllocs measures exactly that).
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(h.items[l], h.items[small]) {
			small = l
		}
		if r < n && h.less(h.items[r], h.items[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
}

// NodeQueue is an indexed min-heap of (node, key) pairs over dense node ids
// in [0, n). Each node appears at most once; PushOrDecrease lowers the key
// of a node already present. Reset is O(1) amortized via epoch stamping.
// The zero value is not usable; create one with NewNodeQueue.
type NodeQueue struct {
	nodes []int32
	keys  []int64
	pos   []int32  // node -> heap slot (valid only when stamp matches)
	stamp []uint32 // node -> epoch in which pos is valid
	epoch uint32
}

// NewNodeQueue returns an empty queue over node ids [0, n).
func NewNodeQueue(n int) *NodeQueue {
	return &NodeQueue{
		pos:   make([]int32, n),
		stamp: make([]uint32, n),
		epoch: 1,
	}
}

// Len returns the number of queued nodes.
func (q *NodeQueue) Len() int { return len(q.nodes) }

// Reset empties the queue in O(1) (epoch bump), retaining capacity, so a
// reused queue inserts without allocating (same pin as Heap.Reset).
func (q *NodeQueue) Reset() {
	q.nodes = q.nodes[:0]
	q.keys = q.keys[:0]
	q.epoch++
	if q.epoch == 0 { // wrapped: stamps are now ambiguous, clear them
		for i := range q.stamp {
			q.stamp[i] = 0
		}
		q.epoch = 1
	}
}

// Contains reports whether node v is currently queued.
func (q *NodeQueue) Contains(v int32) bool {
	return q.stamp[v] == q.epoch
}

// PushOrDecrease inserts node v with the given key, or lowers its key if v
// is already queued with a larger key. It reports whether the queue
// changed. Attempts to raise a key are ignored (Dijkstra never needs them).
func (q *NodeQueue) PushOrDecrease(v int32, key int64) bool {
	if q.Contains(v) {
		i := q.pos[v]
		if key >= q.keys[i] {
			return false
		}
		q.keys[i] = key
		q.up(int(i))
		return true
	}
	q.nodes = append(q.nodes, v)
	q.keys = append(q.keys, key)
	q.stamp[v] = q.epoch
	q.pos[v] = int32(len(q.nodes) - 1)
	q.up(len(q.nodes) - 1)
	return true
}

// Pop removes and returns the node with minimum key. It panics on an empty
// queue.
func (q *NodeQueue) Pop() (v int32, key int64) {
	v, key = q.nodes[0], q.keys[0]
	last := len(q.nodes) - 1
	q.swap(0, last)
	q.nodes = q.nodes[:last]
	q.keys = q.keys[:last]
	q.stamp[v] = 0 // no longer queued
	if last > 0 {
		q.down(0)
	}
	return v, key
}

func (q *NodeQueue) swap(i, j int) {
	q.nodes[i], q.nodes[j] = q.nodes[j], q.nodes[i]
	q.keys[i], q.keys[j] = q.keys[j], q.keys[i]
	q.pos[q.nodes[i]] = int32(i)
	q.pos[q.nodes[j]] = int32(j)
}

func (q *NodeQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.keys[i] >= q.keys[parent] {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *NodeQueue) down(i int) {
	n := len(q.nodes)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.keys[l] < q.keys[small] {
			small = l
		}
		if r < n && q.keys[r] < q.keys[small] {
			small = r
		}
		if small == i {
			return
		}
		q.swap(i, small)
		i = small
	}
}
