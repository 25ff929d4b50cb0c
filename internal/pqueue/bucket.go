package pqueue

import "math/bits"

// bqItem is one queued (node, key) pair.
type bqItem struct {
	node int32
	key  int64
}

// BucketQueue is a monotone integer-key priority queue — a radix heap with
// binary delta buckets and lazy insertion (no decrease-key: improved keys are
// pushed again and stale pops are skipped by the caller's distance check).
//
// It exploits the monotonicity of label-setting searches: the sequence of
// popped keys never decreases, and every pushed key is >= the last popped
// key. Bucket i holds items whose key first differs from the last popped key
// at bit i-1, so each redistribution moves an item to a strictly lower
// bucket; any item is touched O(64) times total, and in practice O(log C)
// for maximum edge weight C. Keys must be non-negative; any such int64 key
// works, however heavy the weights behind it.
//
// A* with a consistent heuristic (h(u) ≤ w(u,v) + h(v) on every edge) is
// monotone too, since a relaxed key dist(u) + w + h(v) never falls below the
// popped dist(u) + h(u): internal/core grows its shortest path trees on this
// queue keyed by dist + landmark bound. It is NOT safe for searches with
// inconsistent heuristics (the subspace searches of internal/core mix exact
// tree distances with landmark bounds, re-expand nodes and can push keys
// below the current minimum); those keep NodeQueue. Pop order among equal
// keys is unspecified, so a caller whose output must not depend on it
// settles every tie before reading it (internal/core's growTo).
//
// The zero value is ready to use with last popped key 0.
type BucketQueue struct {
	last    int64 // most recently popped key (all live keys are >= last)
	size    int
	buckets [65][]bqItem // index = bits.Len64(key ^ last), 0 => key == last
}

// NewBucketQueue returns an empty queue.
func NewBucketQueue() *BucketQueue { return &BucketQueue{} }

// Len returns the number of queued items, counting stale duplicates.
func (q *BucketQueue) Len() int { return q.size }

// Reset empties the queue, retaining bucket capacity.
func (q *BucketQueue) Reset() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.last = 0
	q.size = 0
}

// Push inserts node v with the given key. It panics if key is below the last
// popped key (a monotonicity violation — the caller picked the wrong queue).
func (q *BucketQueue) Push(v int32, key int64) {
	if key < q.last {
		panic("pqueue: BucketQueue key below last popped key (non-monotone caller)")
	}
	i := bits.Len64(uint64(key ^ q.last))
	q.buckets[i] = append(q.buckets[i], bqItem{node: v, key: key})
	q.size++
}

// Pop removes and returns an item with the minimum key. It panics on an
// empty queue. Stale duplicates of a node may be returned; callers skip them
// with their own settled/distance check.
func (q *BucketQueue) Pop() (v int32, key int64) {
	if q.size == 0 {
		panic("pqueue: Pop on empty BucketQueue")
	}
	if len(q.buckets[0]) == 0 {
		q.refill()
	}
	b := q.buckets[0]
	it := b[len(b)-1]
	q.buckets[0] = b[:len(b)-1]
	q.size--
	return it.node, it.key
}

// Top returns the item Pop would return next without removing it. It panics
// on an empty queue. Like Pop it may advance the monotone floor to the
// minimum key, so a caller may afterwards push no key below that minimum.
func (q *BucketQueue) Top() (v int32, key int64) {
	if q.size == 0 {
		panic("pqueue: Top on empty BucketQueue")
	}
	if len(q.buckets[0]) == 0 {
		q.refill()
	}
	it := q.buckets[0][len(q.buckets[0])-1]
	return it.node, it.key
}

// refill locates the lowest non-empty bucket, advances last to its minimum
// key, and redistributes its items. Every item lands in a strictly lower
// bucket (items in bucket i agree with each other on bits >= i-1, so after
// last becomes one of them they differ from last only below bit i-1).
func (q *BucketQueue) refill() {
	i := 1
	for len(q.buckets[i]) == 0 {
		i++
	}
	b := q.buckets[i]
	min := b[0].key
	for _, it := range b[1:] {
		if it.key < min {
			min = it.key
		}
	}
	q.last = min
	for _, it := range b {
		j := bits.Len64(uint64(it.key ^ min))
		q.buckets[j] = append(q.buckets[j], it)
	}
	q.buckets[i] = b[:0]
}
