package pqueue

import (
	"math/rand"
	"testing"
)

// BenchmarkPushPop compares the decrease-key heap with the monotone bucket
// queue on 2^16 distinct nodes, reporting ns per push+pop pair:
//
//   - fill-drain pushes every node at a random key in [0, 2^30) and pops
//     them all (the shape of the benchmark harness's pqueue.pushpop_ns);
//   - hold keeps 2^16 nodes queued and repeatedly pops the minimum and
//     pushes a node at that key plus a road-like weight in [100, 220],
//     the monotone schedule of a label-setting search.
//
// Run it with
//
//	go test -run '^$' -bench BenchmarkPushPop ./internal/pqueue/
func BenchmarkPushPop(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 30)
	}
	steps := make([]int64, n)
	for i := range steps {
		steps[i] = 100 + rng.Int63n(121)
	}
	type queue struct {
		push func(v int32, key int64)
		pop  func() (int32, int64)
		len  func() int
		rst  func()
	}
	nq := NewNodeQueue(n)
	bq := NewBucketQueue()
	queues := []struct {
		name string
		q    queue
	}{
		{"NodeQueue", queue{func(v int32, k int64) { nq.PushOrDecrease(v, k) }, nq.Pop, nq.Len, nq.Reset}},
		{"BucketQueue", queue{bq.Push, bq.Pop, bq.Len, bq.Reset}},
	}
	for _, qc := range queues {
		q := qc.q
		b.Run(qc.name+"/fill-drain", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.rst()
				for v, k := range keys {
					q.push(int32(v), k)
				}
				for q.len() > 0 {
					q.pop()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/pushpop")
		})
		b.Run(qc.name+"/hold", func(b *testing.B) {
			q.rst()
			for v := int32(0); v < n; v++ {
				q.push(v, keys[v]>>14) // keys in [0, 2^16): a dense frontier
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, w := range steps {
					v, k := q.pop()
					q.push(v, k+w)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/pushpop")
		})
	}
}
