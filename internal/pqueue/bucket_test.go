package pqueue

import (
	"math/rand"
	"testing"
)

func TestBucketQueueBasics(t *testing.T) {
	q := NewBucketQueue()
	if q.Len() != 0 {
		t.Fatal("new queue not empty")
	}
	q.Push(3, 30)
	q.Push(7, 10)
	q.Push(5, 20)
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	v, k := q.Pop()
	if v != 7 || k != 10 {
		t.Fatalf("Pop = (%d,%d), want (7,10)", v, k)
	}
	q.Push(9, 10) // equal to last popped key: still legal
	v, k = q.Pop()
	if v != 9 || k != 10 {
		t.Fatalf("Pop = (%d,%d), want (9,10)", v, k)
	}
	if v, k = q.Pop(); v != 5 || k != 20 {
		t.Fatalf("Pop = (%d,%d), want (5,20)", v, k)
	}
	if v, k = q.Pop(); v != 3 || k != 30 {
		t.Fatalf("Pop = (%d,%d), want (3,30)", v, k)
	}
	if q.Len() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestBucketQueueReset(t *testing.T) {
	q := NewBucketQueue()
	q.Push(1, 100)
	q.Pop()
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	// After Reset the monotone floor is back to 0.
	q.Push(2, 5)
	if v, k := q.Pop(); v != 2 || k != 5 {
		t.Fatalf("after reset Pop = (%d,%d)", v, k)
	}
}

func TestBucketQueueMonotonePanic(t *testing.T) {
	q := NewBucketQueue()
	q.Push(0, 10)
	q.Pop()
	defer func() {
		if recover() == nil {
			t.Fatal("pushing below last popped key did not panic")
		}
	}()
	q.Push(1, 9)
}

func TestBucketQueueEmptyPopPanic(t *testing.T) {
	q := NewBucketQueue()
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty queue did not panic")
		}
	}()
	q.Pop()
}

// Property: under a random monotone push/pop schedule (the only schedule a
// label-setting search produces), popped keys are non-decreasing and form a
// permutation of the pushed multiset, and Top reports what Pop returns.
func TestBucketQueueMonotoneSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		q := NewBucketQueue()
		pushed := map[int64]int{}
		popped := map[int64]int{}
		last := int64(0)
		pending := 0
		maxKey := int64(1) << uint(1+rng.Intn(40))
		for step := 0; step < 500; step++ {
			if pending == 0 || rng.Intn(3) > 0 {
				key := last + rng.Int63n(maxKey)
				q.Push(int32(step), key)
				pushed[key]++
				pending++
			} else {
				tv, tk := q.Top()
				v, k := q.Pop()
				if v != tv || k != tk {
					t.Fatalf("trial %d: Top = (%d,%d), Pop = (%d,%d)", trial, tv, tk, v, k)
				}
				if k < last {
					t.Fatalf("trial %d: popped %d after %d", trial, k, last)
				}
				last = k
				popped[k]++
				pending--
			}
		}
		for q.Len() > 0 {
			_, k := q.Pop()
			if k < last {
				t.Fatalf("trial %d: drain popped %d after %d", trial, k, last)
			}
			last = k
			popped[k]++
		}
		if len(pushed) != len(popped) {
			t.Fatalf("trial %d: pushed %d distinct keys, popped %d", trial, len(pushed), len(popped))
		}
		for k, c := range pushed {
			if popped[k] != c {
				t.Fatalf("trial %d: key %d pushed %d times, popped %d", trial, k, c, popped[k])
			}
		}
	}
}

// Property: a lazy-insertion Dijkstra over BucketQueue computes exactly the
// distances a decrease-key Dijkstra over NodeQueue computes, on random
// graphs with random integer weights.
func TestBucketQueueDijkstraEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const inf = int64(1) << 60
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(60)
		type edge struct {
			to int32
			w  int64
		}
		adj := make([][]edge, n)
		for u := 0; u < n; u++ {
			deg := rng.Intn(4)
			for d := 0; d < deg; d++ {
				adj[u] = append(adj[u], edge{to: int32(rng.Intn(n)), w: int64(rng.Intn(1000))})
			}
		}
		src := int32(rng.Intn(n))

		heapDist := make([]int64, n)
		for i := range heapDist {
			heapDist[i] = inf
		}
		nq := NewNodeQueue(n)
		heapDist[src] = 0
		nq.PushOrDecrease(src, 0)
		for nq.Len() > 0 {
			v, d := nq.Pop()
			for _, e := range adj[v] {
				if nd := d + e.w; nd < heapDist[e.to] {
					heapDist[e.to] = nd
					nq.PushOrDecrease(e.to, nd)
				}
			}
		}

		bucketDist := make([]int64, n)
		for i := range bucketDist {
			bucketDist[i] = inf
		}
		bq := NewBucketQueue()
		bucketDist[src] = 0
		bq.Push(src, 0)
		for bq.Len() > 0 {
			v, d := bq.Pop()
			if d > bucketDist[v] {
				continue // stale duplicate
			}
			for _, e := range adj[v] {
				if nd := d + e.w; nd < bucketDist[e.to] {
					bucketDist[e.to] = nd
					bq.Push(e.to, nd)
				}
			}
		}

		for v := 0; v < n; v++ {
			if heapDist[v] != bucketDist[v] {
				t.Fatalf("trial %d: dist[%d] heap=%d bucket=%d", trial, v, heapDist[v], bucketDist[v])
			}
		}
	}
}
