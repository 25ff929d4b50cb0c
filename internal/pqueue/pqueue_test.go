package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapBasics(t *testing.T) {
	h := NewHeap[int](func(a, b int) bool { return a < b })
	if h.Len() != 0 {
		t.Fatal("new heap not empty")
	}
	for _, x := range []int{5, 1, 9, 3, 3, -2} {
		h.Push(x)
	}
	want := []int{-2, 1, 3, 3, 5, 9}
	if h.Top() != -2 {
		t.Fatalf("Top = %d, want -2", h.Top())
	}
	var got []int
	for h.Len() > 0 {
		got = append(got, h.Pop())
	}
	if len(got) != len(want) {
		t.Fatalf("popped %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
}

func TestHeapReset(t *testing.T) {
	h := NewHeap[string](func(a, b string) bool { return a < b })
	h.Push("b")
	h.Push("a")
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset did not empty heap")
	}
	h.Push("z")
	if h.Pop() != "z" {
		t.Fatal("heap unusable after Reset")
	}
}

// Property: popping the heap yields a sorted permutation of the input.
func TestHeapSortsProperty(t *testing.T) {
	f := func(xs []int64) bool {
		h := NewHeap[int64](func(a, b int64) bool { return a < b })
		for _, x := range xs {
			h.Push(x)
		}
		got := make([]int64, 0, len(xs))
		for h.Len() > 0 {
			got = append(got, h.Pop())
		}
		want := append([]int64(nil), xs...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHeap[int](func(a, b int) bool { return a < b })
	last := -1 << 62
	pending := 0
	for step := 0; step < 10000; step++ {
		if pending == 0 || rng.Intn(3) > 0 {
			h.Push(rng.Intn(1000))
			pending++
		} else {
			x := h.Pop()
			pending--
			// Min-heap pops within one drain phase need not be globally
			// sorted when pushes interleave, but each pop must be <= all
			// currently queued items.
			if h.Len() > 0 && x > h.Top() {
				t.Fatalf("step %d: popped %d > top %d", step, x, h.Top())
			}
			_ = last
		}
	}
}

func TestNodeQueueBasics(t *testing.T) {
	q := NewNodeQueue(10)
	if q.Len() != 0 {
		t.Fatal("new queue not empty")
	}
	q.PushOrDecrease(3, 30)
	q.PushOrDecrease(7, 10)
	q.PushOrDecrease(5, 20)
	if !q.Contains(3) || q.Contains(4) {
		t.Fatal("Contains wrong")
	}
	v, k := q.Pop()
	if v != 7 || k != 10 {
		t.Fatalf("Pop = (%d,%d), want (7,10)", v, k)
	}
	if q.Contains(7) {
		t.Fatal("popped node still Contains")
	}
}

func TestNodeQueueDecreaseKey(t *testing.T) {
	q := NewNodeQueue(4)
	q.PushOrDecrease(0, 100)
	q.PushOrDecrease(1, 50)
	if !q.PushOrDecrease(0, 10) {
		t.Fatal("decrease rejected")
	}
	if q.PushOrDecrease(0, 99) {
		t.Fatal("increase accepted")
	}
	v, k := q.Pop()
	if v != 0 || k != 10 {
		t.Fatalf("Pop = (%d,%d), want (0,10)", v, k)
	}
}

func TestNodeQueueReset(t *testing.T) {
	q := NewNodeQueue(4)
	q.PushOrDecrease(2, 5)
	q.Reset()
	if q.Len() != 0 || q.Contains(2) {
		t.Fatal("Reset did not clear")
	}
	q.PushOrDecrease(2, 7)
	if v, k := q.Pop(); v != 2 || k != 7 {
		t.Fatalf("after reset Pop = (%d,%d)", v, k)
	}
}

func TestNodeQueueEpochWrap(t *testing.T) {
	q := NewNodeQueue(2)
	q.epoch = ^uint32(0) // force wrap on next Reset
	q.PushOrDecrease(0, 1)
	q.Reset()
	if q.Contains(0) {
		t.Fatal("stale containment after epoch wrap")
	}
	q.PushOrDecrease(1, 3)
	if v, _ := q.Pop(); v != 1 {
		t.Fatal("queue broken after epoch wrap")
	}
}

// Property: NodeQueue with random pushes and decreases pops nodes in
// non-decreasing final-key order, matching a reference map implementation.
func TestNodeQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		q := NewNodeQueue(n)
		ref := make(map[int32]int64)
		for op := 0; op < 200; op++ {
			v := int32(rng.Intn(n))
			key := int64(rng.Intn(500))
			q.PushOrDecrease(v, key)
			if cur, ok := ref[v]; !ok || key < cur {
				ref[v] = key
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("trial %d: Len = %d, want %d", trial, q.Len(), len(ref))
		}
		lastKey := int64(-1)
		for q.Len() > 0 {
			v, k := q.Pop()
			if k < lastKey {
				t.Fatalf("trial %d: keys out of order", trial)
			}
			lastKey = k
			want, ok := ref[v]
			if !ok || want != k {
				t.Fatalf("trial %d: node %d key %d, want %d (present=%v)", trial, v, k, want, ok)
			}
			delete(ref, v)
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: queue lost nodes %v", trial, ref)
		}
	}
}
