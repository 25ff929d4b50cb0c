package kpj_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kpj"
	"kpj/internal/gen"
)

// randomDigraph builds a connected-ish random sparse directed graph: a
// random cycle backbone (so everything is reachable) plus extra random
// arcs, with varied weights that create plenty of near-tied paths.
func randomDigraph(t testing.TB, n, extra int, seed int64) *kpj.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := kpj.NewBuilder(n)
	perm := rng.Perm(n)
	for i := range perm {
		u, v := kpj.NodeID(perm[i]), kpj.NodeID(perm[(i+1)%n])
		b.AddEdge(u, v, kpj.Weight(1+rng.Int63n(20)))
	}
	for i := 0; i < extra; i++ {
		u, v := kpj.NodeID(rng.Intn(n)), kpj.NodeID(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v, kpj.Weight(1+rng.Int63n(20)))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// parallelConfig is one engine the determinism contract covers.
type parallelConfig struct {
	name    string
	alg     kpj.Algorithm
	indexed bool
}

// parallelConfigs is every row of allAlgorithms with a landmark index (the
// deviation baselines ignore it), plus the flagship without one (the
// paper's IterBoundI-NL variant).
func parallelConfigs() []parallelConfig {
	cfgs := []parallelConfig{{"IterBoundI-NL", kpj.IterBoundSPTI, false}}
	for _, alg := range allAlgorithms {
		cfgs = append(cfgs, parallelConfig{alg.String(), alg, true})
	}
	return cfgs
}

// TestParallelDeterminism: for every algorithm, on random graphs, the
// full result sequence at Parallelism 2, 4, and 8 must be byte-identical
// to the sequential one — same paths, same order, including ties.
func TestParallelDeterminism(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 42} {
		g := randomDigraph(t, 150, 600, seed)
		ix, err := kpj.BuildIndex(g, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		// The index is itself a pure function of (graph, count, seed) —
		// seed 0 is a seed, not "pick one" — at every worker count.
		if again, err := kpj.BuildIndexParallel(g, 6, seed, 1); err != nil || again.Fingerprint() != ix.Fingerprint() {
			t.Fatalf("seed %d: a second build differs from the first (err %v)", seed, err)
		}
		rng := rand.New(rand.NewSource(seed + 1000))
		sources := []kpj.NodeID{kpj.NodeID(rng.Intn(g.NumNodes()))}
		targets := make([]kpj.NodeID, 0, 8)
		for len(targets) < 8 {
			targets = append(targets, kpj.NodeID(rng.Intn(g.NumNodes())))
		}
		for _, cfg := range parallelConfigs() {
			opt := kpj.Options{Algorithm: cfg.alg}
			if cfg.indexed {
				opt.Index = ix
			}
			seqOpt := opt
			seqOpt.Parallelism = 1
			want, err := g.TopKJoinSets(sources, targets, 40, &seqOpt)
			if err != nil {
				t.Fatalf("seed %d %s: sequential: %v", seed, cfg.name, err)
			}
			for _, p := range []int{2, 4, 8} {
				parOpt := opt
				parOpt.Parallelism = p
				got, err := g.TopKJoinSets(sources, targets, 40, &parOpt)
				if err != nil {
					t.Fatalf("seed %d %s P=%d: %v", seed, cfg.name, p, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s P=%d: result differs from sequential\n got %v\nwant %v",
						seed, cfg.name, p, got, want)
				}
			}
		}
	}
}

// countsRow is one row of the engine counts golden: the six Stats
// counters (Searches, LowerBounds, NodesPopped, EdgesRelaxed, TauRounds,
// SPTNodes), the emitted length sequence and an FNV-1a hash of the node
// sequences.
type countsRow struct {
	key     string
	counts  [6]int64
	lengths []kpj.Weight
	hash    uint64
}

// countsGolden pins the work every engine does on a 12×12 gen.Road. A
// refactor of the engine wiring must leave it byte-for-byte unchanged;
// IterBoundI without an index is the paper's IterBoundI-NL.
var countsGolden = []countsRow{
	{"IterBoundI/KSP/index=true", [6]int64{20, 181, 429, 565, 0, 137}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"IterBoundI/KSP/index=false", [6]int64{20, 181, 422, 557, 0, 145}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"IterBoundI/KPJ/index=true", [6]int64{18, 75, 168, 166, 1, 75}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"IterBoundI/KPJ/index=false", [6]int64{18, 75, 210, 166, 1, 117}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"IterBoundI/GKPJ/index=true", [6]int64{15, 44, 88, 63, 4, 32}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x38ad829ea932e9f7},
	{"IterBoundI/GKPJ/index=false", [6]int64{15, 44, 149, 63, 4, 93}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x38ad829ea932e9f7},
	{"IterBoundP/KSP/index=true", [6]int64{22, 134, 418, 578, 1, 80}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"IterBoundP/KSP/index=false", [6]int64{12, 134, 270, 242, 0, 143}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"IterBoundP/KPJ/index=true", [6]int64{28, 66, 217, 281, 11, 20}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"IterBoundP/KPJ/index=false", [6]int64{14, 66, 225, 156, 0, 121}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"IterBoundP/GKPJ/index=true", [6]int64{30, 53, 143, 155, 13, 7}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x6a97c632be1e351f},
	{"IterBoundP/GKPJ/index=false", [6]int64{35, 53, 601, 628, 21, 40}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x5cd72c0824fa1c7f},
	{"IterBound/KSP/index=true", [6]int64{63, 134, 1042, 1653, 1, 0}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"IterBound/KSP/index=false", [6]int64{123, 134, 6863, 8328, 29, 0}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"IterBound/KPJ/index=true", [6]int64{35, 66, 362, 527, 16, 0}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"IterBound/KPJ/index=false", [6]int64{48, 66, 852, 1090, 29, 0}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"IterBound/GKPJ/index=true", [6]int64{35, 53, 153, 179, 16, 0}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x6a97c632be1e351f},
	{"IterBound/GKPJ/index=false", [6]int64{72, 53, 1037, 1170, 54, 0}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x6a97c632be1e351f},
	{"BestFirst/KSP/index=true", [6]int64{63, 134, 1042, 1913, 0, 0}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"BestFirst/KSP/index=false", [6]int64{123, 134, 7529, 9297, 0, 0}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"BestFirst/KPJ/index=true", [6]int64{35, 66, 498, 1041, 0, 0}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"BestFirst/KPJ/index=false", [6]int64{48, 66, 1288, 1973, 0, 0}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"BestFirst/GKPJ/index=true", [6]int64{26, 53, 190, 446, 0, 0}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x6a97c632be1e351f},
	{"BestFirst/GKPJ/index=false", [6]int64{42, 53, 1075, 1774, 0, 0}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x6a97c632be1e351f},
	{"DA/KSP/index=true", [6]int64{135, 0, 8216, 10038, 0, 0}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"DA/KSP/index=false", [6]int64{135, 0, 8216, 10038, 0, 0}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"DA/KPJ/index=true", [6]int64{67, 0, 1623, 2495, 0, 0}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"DA/KPJ/index=false", [6]int64{67, 0, 1623, 2495, 0, 0}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"DA/GKPJ/index=true", [6]int64{54, 0, 1324, 2168, 0, 0}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x6a97c632be1e351f},
	{"DA/GKPJ/index=false", [6]int64{54, 0, 1324, 2168, 0, 0}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x6a97c632be1e351f},
	{"DA-SPT/KSP/index=true", [6]int64{42, 93, 1600, 1772, 0, 145}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"DA-SPT/KSP/index=false", [6]int64{42, 93, 1600, 1772, 0, 145}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"DA-SPT/KPJ/index=true", [6]int64{40, 27, 472, 641, 0, 145}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"DA-SPT/KPJ/index=false", [6]int64{40, 27, 472, 641, 0, 145}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"DA-SPT/GKPJ/index=true", [6]int64{33, 21, 373, 516, 0, 146}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x5cd72c0824fa1c7f},
	{"DA-SPT/GKPJ/index=false", [6]int64{33, 21, 373, 516, 0, 146}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x5cd72c0824fa1c7f},
}

// TestCountsGolden: every engine, on KSP, KPJ and GKPJ, with and without
// a landmark index, does exactly the pinned work and emits exactly the
// pinned paths, at Parallelism 1 and 4 alike.
func TestCountsGolden(t *testing.T) {
	og, err := gen.Road(gen.RoadConfig{Width: 12, Height: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := parseBoth(t, og.NumNodes(), edgesOf(og))
	ix, err := kpj.BuildIndex(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		name             string
		sources, targets []kpj.NodeID
	}{
		{"KSP", []kpj.NodeID{0}, []kpj.NodeID{143}},
		{"KPJ", []kpj.NodeID{17}, []kpj.NodeID{60, 99, 130, 141}},
		{"GKPJ", []kpj.NodeID{3, 40, 77}, []kpj.NodeID{100, 115, 128, 138}},
	}
	var got []countsRow
	for _, alg := range allAlgorithms {
		for _, q := range queries {
			for _, indexed := range []bool{true, false} {
				key := fmt.Sprintf("%v/%s/index=%v", alg, q.name, indexed)
				var rows [2]countsRow
				for i, par := range []int{1, 4} {
					var st kpj.Stats
					opt := &kpj.Options{Algorithm: alg, Stats: &st, Parallelism: par}
					if indexed {
						opt.Index = ix
					}
					paths, err := g.TopKJoinSets(q.sources, q.targets, 12, opt)
					if err != nil {
						t.Fatalf("%s P=%d: %v", key, par, err)
					}
					h := fnv.New64a()
					row := countsRow{key: key, counts: [6]int64{st.Searches, st.LowerBounds,
						st.NodesPopped, st.EdgesRelaxed, st.TauRounds, st.SPTNodes}}
					for _, p := range paths {
						row.lengths = append(row.lengths, p.Length)
						for _, v := range p.Nodes {
							binary.Write(h, binary.LittleEndian, int32(v))
						}
						binary.Write(h, binary.LittleEndian, int32(-1))
					}
					row.hash = h.Sum64()
					rows[i] = row
				}
				if !reflect.DeepEqual(rows[0], rows[1]) {
					t.Errorf("%s: P=4 differs from P=1\n got %+v\nwant %+v", key, rows[1], rows[0])
				}
				got = append(got, rows[0])
			}
		}
	}
	if !reflect.DeepEqual(got, countsGolden) {
		var b strings.Builder
		for _, r := range got {
			fmt.Fprintf(&b, "\t{%q, %#v, %#v, %#x},\n", r.key, r.counts, r.lengths, r.hash)
		}
		t.Fatalf("counts differ from countsGolden; this run:\n%s", b.String())
	}
}

// TestParallelBudgetPrefix extends the bounded-execution contract to
// parallel runs: under any budget, a parallel query's partial results
// must be an exact prefix of the unbounded sequential answer. (The
// truncation point may differ between parallelism levels — workers share
// one budget pool — but what is emitted may never deviate.)
func TestParallelBudgetPrefix(t *testing.T) {
	g := boundGrid(t, 12, 12, 1)
	src := []kpj.NodeID{0}
	dst := []kpj.NodeID{kpj.NodeID(g.NumNodes() - 1)}
	const k = 30
	for _, alg := range allAlgorithms {
		full, err := g.TopKJoinSets(src, dst, k, &kpj.Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: unbounded query failed: %v", alg, err)
		}
		for _, p := range []int{2, 4} {
			sawTruncation := false
			for budget := int64(1); budget <= 1<<22; budget *= 4 {
				paths, err := g.TopKJoinSets(src, dst, k,
					&kpj.Options{Algorithm: alg, Budget: budget, Parallelism: p})
				if err == nil {
					if len(paths) != k {
						t.Fatalf("%v P=%d budget=%d: nil error but only %d paths", alg, p, budget, len(paths))
					}
					continue
				}
				sawTruncation = true
				if !errors.Is(err, kpj.ErrBudgetExceeded) {
					t.Fatalf("%v P=%d budget=%d: err = %v, want ErrBudgetExceeded", alg, p, budget, err)
				}
				for i, path := range paths {
					if path.Length != full[i].Length {
						t.Fatalf("%v P=%d budget=%d: path %d has length %d, full answer has %d — not a prefix",
							alg, p, budget, i, path.Length, full[i].Length)
					}
				}
			}
			if !sawTruncation {
				t.Errorf("%v P=%d: no budget in the sweep truncated the query", alg, p)
			}
		}
	}
}

// TestBoundsCache: cached queries return identical results and repeat
// queries against the same category hit instead of recomputing.
func TestBoundsCache(t *testing.T) {
	g := randomDigraph(t, 120, 500, 3)
	ix, err := kpj.BuildIndex(g, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	targets := []kpj.NodeID{5, 17, 44, 90}
	sources := []kpj.NodeID{2}
	want, err := g.TopKJoinSets(sources, targets, 25, &kpj.Options{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	cache := kpj.NewBoundsCache(8)
	for i := 0; i < 3; i++ {
		got, err := g.TopKJoinSets(sources, targets, 25,
			&kpj.Options{Index: ix, BoundsCache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: cached result differs from uncached", i)
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("no cache hits after repeated queries (misses=%d size=%d)", st.Misses, st.Size)
	}
}

// TestBatchTraceMerge: a traced batch must produce, regardless of worker
// scheduling, each item's full sequential trace under a "batch item #i"
// header, in input order.
func TestBatchTraceMerge(t *testing.T) {
	g := cityGrid(t, 15, 15, 9)
	targets := []kpj.NodeID{10, 101, 210}
	queries := make([]kpj.BatchQuery, 6)
	for i := range queries {
		queries[i] = kpj.BatchQuery{
			Sources: []kpj.NodeID{kpj.NodeID(i * 31)},
			Targets: targets,
			K:       5,
		}
	}
	var batchTrace bytes.Buffer
	results := g.Batch(queries, 4, &kpj.Options{Trace: &batchTrace})
	var want bytes.Buffer
	for i, q := range queries {
		if results[i].Err != nil {
			t.Fatalf("item %d: %v", i, results[i].Err)
		}
		fmt.Fprintf(&want, "batch item #%d\n", i)
		var one bytes.Buffer
		if _, err := g.TopKJoinSets(q.Sources, q.Targets, q.K, &kpj.Options{Trace: &one}); err != nil {
			t.Fatalf("sequential item %d: %v", i, err)
		}
		want.Write(one.Bytes())
	}
	if batchTrace.String() != want.String() {
		t.Fatalf("batch trace differs from per-item sequential traces\n got:\n%s\nwant:\n%s",
			batchTrace.String(), want.String())
	}
}

// TestBoundsCacheConcurrent hammers one cache from many goroutines
// running parallel queries against overlapping categories — the shape a
// server under load produces. Run with -race; every result must match
// the uncached sequential answer.
func TestBoundsCacheConcurrent(t *testing.T) {
	g := randomDigraph(t, 100, 400, 11)
	ix, err := kpj.BuildIndex(g, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	cats := [][]kpj.NodeID{
		{3, 9, 27, 81},
		{5, 25, 50, 75},
		{8, 16, 32, 64},
	}
	want := make([][]kpj.Path, len(cats))
	for i, targets := range cats {
		if want[i], err = g.TopKJoinSets([]kpj.NodeID{1}, targets, 15, &kpj.Options{Index: ix}); err != nil {
			t.Fatal(err)
		}
	}
	cache := kpj.NewBoundsCache(2) // smaller than the working set: forces eviction churn
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				i := (w + r) % len(cats)
				got, err := g.TopKJoinSets([]kpj.NodeID{1}, cats[i], 15,
					&kpj.Options{Index: ix, BoundsCache: cache, Parallelism: 2})
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("worker %d round %d: cached result differs", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
