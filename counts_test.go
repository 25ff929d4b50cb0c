package kpj_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"kpj"
	"kpj/internal/gen"
)

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
	{"IterBoundI/KSP/index=true", [6]int64{13, 181, 335, 363, 0, 137}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"IterBoundI/KSP/index=false", [6]int64{11, 181, 314, 329, 0, 145}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"IterBoundI/KPJ/index=true", [6]int64{12, 75, 121, 97, 1, 53}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"IterBoundI/KPJ/index=false", [6]int64{13, 75, 169, 92, 2, 101}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"IterBoundI/GKPJ/index=true", [6]int64{23, 44, 90, 64, 12, 33}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x38ad829ea932e9f7},
	{"IterBoundI/GKPJ/index=false", [6]int64{22, 44, 155, 67, 11, 95}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x38ad829ea932e9f7},
	{"IterBoundP/KSP/index=true", [6]int64{19, 134, 387, 510, 1, 80}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"IterBoundP/KSP/index=false", [6]int64{11, 134, 265, 229, 0, 143}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"IterBoundP/KPJ/index=true", [6]int64{28, 66, 212, 238, 11, 20}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"IterBoundP/KPJ/index=false", [6]int64{12, 66, 214, 108, 0, 121}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"IterBoundP/GKPJ/index=true", [6]int64{38, 53, 163, 176, 21, 7}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x6a97c632be1e351f},
	{"IterBoundP/GKPJ/index=false", [6]int64{44, 53, 722, 748, 31, 40}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x5cd72c0824fa1c7f},
	{"IterBound/KSP/index=true", [6]int64{63, 134, 1042, 1642, 1, 0}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"IterBound/KSP/index=false", [6]int64{123, 134, 6854, 8309, 32, 0}, []int64{3075, 3082, 3101, 3114, 3116, 3118, 3119, 3123, 3129, 3130, 3132, 3133}, 0x70ab3b4bfac26287},
	{"IterBound/KPJ/index=true", [6]int64{35, 66, 353, 459, 16, 0}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"IterBound/KPJ/index=false", [6]int64{48, 66, 829, 1043, 29, 0}, []int64{1200, 1205, 1220, 1223, 1230, 1255, 1257, 1260, 1262, 1266, 1267, 1269}, 0x82a05219e4d3c0eb},
	{"IterBound/GKPJ/index=true", [6]int64{42, 53, 181, 210, 23, 0}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x6a97c632be1e351f},
	{"IterBound/GKPJ/index=false", [6]int64{89, 53, 1159, 1299, 71, 0}, []int64{442, 442, 473, 695, 728, 728, 746, 750, 757, 765, 793, 808}, 0x6a97c632be1e351f},
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
// pinned paths. Each query runs twice on the same Graph, the second time
// on a warm recycled workspace, and both runs must give the same row.
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
				for i := range rows {
					var st kpj.Stats
					opt := &kpj.Options{Algorithm: alg, Stats: &st}
					if indexed {
						opt.Index = ix
					}
					paths, err := g.TopKJoinSets(q.sources, q.targets, 12, opt)
					if err != nil {
						t.Fatalf("%s run %d: %v", key, i+1, err)
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
					t.Errorf("%s: second run differs from the first\n got %+v\nwant %+v", key, rows[1], rows[0])
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
