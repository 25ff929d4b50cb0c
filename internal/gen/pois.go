package gen

import (
	"fmt"
	"math/rand"

	"kpj/internal/graph"
)

// This file generates point-of-interest categories following Section 7:
//
//   - For CAL the paper uses real POIs; four representative categories
//     with 1, 8, 14 and 94 members are evaluated. AddCALCategories places
//     synthetic stand-ins with exactly those cardinalities.
//   - For the other datasets the paper generates nested synthetic POI sets
//     T1 ⊂ T2 ⊂ T3 ⊂ T4 with n·10⁻⁴, 5n·10⁻⁴, 10n·10⁻⁴ and 15n·10⁻⁴
//     members. AddNestedCategories reproduces that scheme.

// CALCategories are the representative CAL categories of Section 7 with
// their physical node counts.
var CALCategories = []struct {
	Name string
	Size int
}{
	{"Glacier", 1},
	{"Lake", 8},
	{"Crater", 14},
	{"Harbor", 94},
}

// AddCALCategories registers the four CAL-like categories on g at random
// nodes and returns their names in ascending size order.
func AddCALCategories(g *graph.Graph, seed int64) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 0, len(CALCategories))
	for _, c := range CALCategories {
		nodes, err := sampleNodes(rng, g.NumNodes(), c.Size)
		if err != nil {
			return nil, fmt.Errorf("gen: category %s: %w", c.Name, err)
		}
		if err := g.AddCategory(c.Name, nodes); err != nil {
			return nil, err
		}
		names = append(names, c.Name)
	}
	return names, nil
}

// NestedNames are the category names created by AddNestedCategories.
var NestedNames = []string{"T1", "T2", "T3", "T4"}

// nestedPerTenThousand holds |Ti| in units of n·10⁻⁴ (Section 7).
var nestedPerTenThousand = []int{1, 5, 10, 15}

// AddNestedCategories registers T1 ⊂ T2 ⊂ T3 ⊂ T4 on g (sizes n·10⁻⁴ …
// 15n·10⁻⁴, at least 1) and returns the names. The nesting matches the
// paper: each Ti extends the previous one with fresh random nodes.
func AddNestedCategories(g *graph.Graph, seed int64) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	largest := sizeForNested(n, len(nestedPerTenThousand)-1)
	pool, err := sampleNodes(rng, n, largest)
	if err != nil {
		return nil, fmt.Errorf("gen: nested categories: %w", err)
	}
	for i, name := range NestedNames {
		size := sizeForNested(n, i)
		if err := g.AddCategory(name, pool[:size]); err != nil {
			return nil, err
		}
	}
	return append([]string(nil), NestedNames...), nil
}

func sizeForNested(n, idx int) int {
	size := n * nestedPerTenThousand[idx] / 10000
	if size < 1 {
		size = 1
	}
	if size > n {
		size = n
	}
	return size
}

func sampleNodes(rng *rand.Rand, n, size int) ([]graph.NodeID, error) {
	if size > n {
		return nil, fmt.Errorf("want %d nodes from %d", size, n)
	}
	if size*20 < n {
		// Sparse sample: rejection sampling beats materializing an O(n)
		// permutation on the multi-million-node datasets.
		seen := make(map[graph.NodeID]struct{}, size)
		nodes := make([]graph.NodeID, 0, size)
		for len(nodes) < size {
			v := graph.NodeID(rng.Intn(n))
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				nodes = append(nodes, v)
			}
		}
		return nodes, nil
	}
	perm := rng.Perm(n)
	nodes := make([]graph.NodeID, size)
	for i := 0; i < size; i++ {
		nodes[i] = graph.NodeID(perm[i])
	}
	return nodes, nil
}
