package landmark

import (
	"fmt"
	"sync"

	"kpj/internal/fault"
	"kpj/internal/graph"
	"kpj/internal/pqueue"
	"kpj/internal/sssp"
)

// This file is the incremental maintenance path for the landmark index
// under live graph updates: instead of rebuilding every distance table
// after a delta (the cost of BuildWithLandmarks, 2·|L| full Dijkstras),
// Repair touches only the tables a changed edge can actually have
// damaged and repairs each of those by dynamic SSSP over its dirty
// region (repairRow), however many there are. The damage test is
// conservative — a table that is not flagged is provably identical on
// the new graph — so the repaired index is row-for-row equal to a
// from-scratch rebuild with the same landmark set (the invariant the
// metamorphic churn suite pins).
//
// Damage rules, per landmark w and net edge change (u, v, old→new):
//
//   - forward table δ(w, ·): a weight decrease (or insertion) matters
//     iff δ(w,u) + new < δ(w,v) — the edge now shortcuts something. A
//     weight increase (or deletion) matters iff δ(w,u) + old == δ(w,v) —
//     the edge lay on some shortest path from w.
//   - backward table δ(·, w): the mirror image with the roles of u and v
//     swapped: decrease iff new + δ(v,w) < δ(u,w), increase iff
//     old + δ(v,w) == δ(u,w).
//
// Entries at the far32 sentinel are inexact (the true distance merely
// exceeds int32), so any rule that would need their exact value reports
// damage conservatively.

// RepairStats reports what one Repair call did.
type RepairStats struct {
	Landmarks   int // landmark count (tables per direction)
	FwdRepaired int // forward tables repaired
	BwdRepaired int // backward tables repaired
	DirtyNodes  int // nodes whose fwd or bwd entry changed in any table
	Settled     int // nodes settled (non-stale queue pops) summed over repaired tables
}

// Repaired reports the total number of tables repaired.
func (s RepairStats) Repaired() int { return s.FwdRepaired + s.BwdRepaired }

// Repair produces the index for newG — the graph that results from
// applying the given net edge changes to old's graph — by repairing
// only the damaged distance tables. It returns the new index, a per-node
// dirty mask (true where any landmark's fwd or bwd entry changed; the
// exact scope for bound-table cache invalidation), and repair stats.
// old is not modified; undamaged tables are shared between the two
// indexes, which is safe because both are immutable.
//
// parallelism bounds the concurrent table repairs (<= 0 = all cores).
func Repair(newG *graph.Graph, old *Index, changes []graph.EdgeChange, parallelism int) (*Index, []bool, RepairStats, error) {
	if err := fault.Hit(fault.IndexBuild); err != nil {
		return nil, nil, RepairStats{}, fmt.Errorf("landmark: repair: %w", err)
	}
	n := old.g.NumNodes()
	if newG.NumNodes() != n {
		return nil, nil, RepairStats{}, fmt.Errorf("landmark: repair: graph has %d nodes, index was built over %d", newG.NumNodes(), n)
	}
	L := len(old.landmarks)
	stats := RepairStats{Landmarks: L}

	fwdDamaged := make([]bool, L)
	bwdDamaged := make([]bool, L)
	for i := 0; i < L; i++ {
		for _, c := range changes {
			if c.U == c.V {
				continue // self-loops never lie on shortest paths
			}
			fwdDamaged[i] = fwdDamaged[i] || rowDamaged(old.fwd[i], c.U, c.V, c.Old, c.New)
			bwdDamaged[i] = bwdDamaged[i] || rowDamaged(old.bwd[i], c.V, c.U, c.Old, c.New)
			if fwdDamaged[i] && bwdDamaged[i] {
				break
			}
		}
	}

	fwd := make([][]int32, L)
	bwd := make([][]int32, L)
	type job struct {
		dir    graph.Direction
		i      int
		oldRow []int32
		// Results, written only by the goroutine that runs the job.
		row     []int32
		changed []graph.NodeID // entries that differ from the old row
		diffAll bool           // row came from a full Dijkstra: compare all n entries
		settled int
	}
	var jobs []*job
	for i := 0; i < L; i++ {
		if fwdDamaged[i] {
			jobs = append(jobs, &job{dir: graph.Forward, i: i, oldRow: old.fwd[i]})
			stats.FwdRepaired++
		} else {
			fwd[i] = old.fwd[i]
		}
		if bwdDamaged[i] {
			jobs = append(jobs, &job{dir: graph.Backward, i: i, oldRow: old.bwd[i]})
			stats.BwdRepaired++
		} else {
			bwd[i] = old.bwd[i]
		}
	}
	runJobs(jobs, parallelism, func(j *job) {
		// Each job writes only its own result fields; a row is a pure
		// function of (newG, landmark) whichever way it is computed, so the
		// repaired index is identical at every parallelism level
		// (TestRepairMatchesFullRebuild, TestRepairLaw* at par 1 and 4).
		root := old.landmarks[j.i]
		var ok bool
		if j.row, j.changed, j.settled, ok = repairRow(old.g, newG, j.dir, root, j.oldRow, changes); ok {
			return
		}
		j.row, j.diffAll = compress(sssp.Dijkstra(newG, j.dir, root).Dist), true
		for _, d := range j.row {
			if d != unreach32 {
				j.settled++ // Dijkstra pops every reachable node exactly once non-stale
			}
		}
	})

	dirty := make([]bool, n)
	for _, j := range jobs {
		if j.dir == graph.Forward {
			fwd[j.i] = j.row
		} else {
			bwd[j.i] = j.row
		}
		if j.diffAll {
			diffRows(dirty, j.oldRow, j.row)
		}
		for _, v := range j.changed {
			dirty[v] = true
		}
		stats.Settled += j.settled
	}
	for _, d := range dirty {
		if d {
			stats.DirtyNodes++
		}
	}

	return assemble(newG, old.shape.apply(changes), old.landmarks, fwd, bwd), dirty, stats, nil
}

// repairRow brings one distance row up to date by batch dynamic SSSP
// (after Ramalingam & Reps) instead of a fresh Dijkstra, so its cost
// follows the region whose distances can change, not n. dir, root and
// oldRow name the table (distances over oldG in direction dir from root);
// it returns the row for newG, the nodes whose entry differs from oldRow,
// and the number of nodes settled. ok == false means the repair met an
// inexact far32 entry it would have had to read or write; the caller
// then recomputes the table from scratch.
//
// Below, "tail" and "head" are in search order: a backward table relaxes
// edge (U, V) from V to U. Four steps:
//
//  1. Mark. Starting from the head of every increased or deleted edge
//     that was tight (row[tail] + old == row[head]), mark everything
//     reachable over tight edges of the OLD graph. The marked set is
//     closed under descent in the old shortest-path DAG, so every
//     unmarked node keeps a shortest path that avoids all increased
//     edges: its old entry is still the length of a real path. No
//     in-degree counting, so ties and zero-weight cycles need no care.
//     The root is never marked (its distance is 0 by definition).
//  2. Relabel. Each marked node gets the best label over its unmarked
//     in-neighbours in newG, or unreachable.
//  3. Seed. The head of every decreased or inserted edge is relaxed from
//     its tail's label.
//  4. Settle. One Dijkstra over newG from every node labelled in steps
//     2–3, relaxing wherever a label improves.
//
// Every label is at all times the length of a real path in newG, and at
// the end no edge of newG can improve one: take the first node y on a
// shortest new path whose label is too high, and its predecessor x. If x
// was ever queued, it relaxed (x, y) when popped with its final label;
// otherwise x is unmarked and unimproved, and (x, y) was covered by step
// 2 (y marked), step 3 (edge decreased) or the old row (edge unchanged).
func repairRow(oldG, newG *graph.Graph, dir graph.Direction, root graph.NodeID, oldRow []int32, changes []graph.EdgeChange) (row []int32, changed []graph.NodeID, settled int, ok bool) {
	row = append([]int32(nil), oldRow...)
	marked := make([]bool, len(row))
	var touched []graph.NodeID // the marked nodes, then unmarked ones as they improve
	inexact := false
	// label widens an entry for arithmetic, noting when it is not exact.
	label := func(d int32) graph.Weight {
		switch d {
		case unreach32:
			return graph.Infinity
		case far32:
			inexact = true
		}
		return graph.Weight(d)
	}
	ends := func(c graph.EdgeChange) (tail, head graph.NodeID) {
		if dir == graph.Forward {
			return c.U, c.V
		}
		return c.V, c.U
	}

	// Step 1. touched doubles as the closure's work list.
	mark := func(tail, head graph.NodeID, w graph.Weight) {
		if head != root && !marked[head] && label(oldRow[tail])+w == label(oldRow[head]) {
			marked[head] = true
			touched = append(touched, head)
		}
	}
	for _, c := range changes {
		if tail, head := ends(c); c.New > c.Old && tail != head && oldRow[tail] != unreach32 {
			mark(tail, head, c.Old)
		}
	}
	for k := 0; k < len(touched); k++ {
		v := touched[k]
		for _, e := range oldG.Edges(dir, v) {
			mark(v, e.To, e.W)
		}
	}

	// relax offers label d to node v and queues v when that improves it.
	var q pqueue.BucketQueue
	relax := func(v graph.NodeID, d graph.Weight) {
		if d >= label(row[v]) {
			return
		}
		if d >= far32 {
			inexact = true
			return
		}
		if !marked[v] && row[v] == oldRow[v] {
			touched = append(touched, v) // first write: labels only go down from here
		}
		row[v] = int32(d)
		q.Push(v, d)
	}

	// Step 2. Only unmarked entries are read, so one pass suffices.
	for _, v := range touched {
		row[v] = unreach32
		best := graph.Infinity
		for _, e := range newG.Edges(dir.Reverse(), v) {
			if !marked[e.To] {
				best = min(best, label(row[e.To])+e.W)
			}
		}
		relax(v, best)
	}
	// Step 3.
	for _, c := range changes {
		if tail, head := ends(c); c.New < c.Old && tail != head && row[tail] != unreach32 {
			relax(head, label(row[tail])+c.New)
		}
	}
	// Step 4.
	for q.Len() > 0 && !inexact {
		v, d := q.Pop()
		if d > graph.Weight(row[v]) {
			continue // stale lazy-insertion duplicate
		}
		settled++
		for _, e := range newG.Edges(dir, v) {
			relax(e.To, d+e.W)
		}
	}
	if inexact {
		return nil, nil, 0, false
	}

	// A marked node that settled back to its old distance is not dirty.
	changed = touched[:0]
	for _, v := range touched {
		if row[v] != oldRow[v] {
			changed = append(changed, v)
		}
	}
	return row, changed, settled, true
}

// rowDamaged applies the damage rules to one compressed distance row.
// For a forward table pass (tail, head) = (U, V); for a backward table
// the roles swap: the relaxation there is dist[head-side] + w improving
// dist[tail-side], which is the same formula with (tail, head) = (V, U).
func rowDamaged(row []int32, tail, head graph.NodeID, oldW, newW graph.Weight) bool {
	dt, dh := row[tail], row[head]
	if dt == unreach32 {
		// The relaxation source is unreachable from (or to) the
		// landmark; no change to this edge can alter any distance.
		return false
	}
	if dt == far32 {
		return true // inexact source distance: conservative
	}
	if newW < oldW { // decrease or insertion: can the edge shortcut?
		if dh >= far32 {
			return true // head newly reachable, or inexact
		}
		return graph.Weight(dt)+newW < graph.Weight(dh)
	}
	// Increase or deletion: did the edge lie on a shortest path?
	if dh == unreach32 {
		// The edge existed (oldW finite) and its source side is settled,
		// so the head side cannot be unreachable; degenerate rows are
		// treated as damaged to stay safe.
		return oldW < graph.Infinity
	}
	if dh == far32 {
		return true
	}
	return graph.Weight(dt)+oldW == graph.Weight(dh)
}

// diffRows marks every node whose entry differs between two rows.
func diffRows(dirty []bool, old, new []int32) {
	for v := range old {
		if old[v] != new[v] {
			dirty[v] = true
		}
	}
}

// runJobs executes the jobs on up to `parallelism` goroutines (<= 0 =
// all cores), returning when all are done.
func runJobs[T any](jobs []T, parallelism int, run func(T)) {
	workers := buildWorkers(parallelism)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, j := range jobs {
			run(j)
		}
		return
	}
	var next int64
	var nextMu sync.Mutex
	claim := func() int {
		nextMu.Lock()
		defer nextMu.Unlock()
		t := int(next)
		next++
		return t
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		// Workers claim job indices through a mutex and each job writes a
		// distinct table slot; output is identical at every worker count
		// (TestRepairLaw* at par 1 and 4).
		go func() {
			defer wg.Done()
			for {
				t := claim()
				if t >= len(jobs) {
					return
				}
				run(jobs[t])
			}
		}()
	}
	wg.Wait()
}

// TablesChecksum hashes every distance entry of the index (FNV-1a over
// landmark ids and both table directions). Two indexes over equal graphs
// with equal landmark sets have equal checksums exactly when their
// tables are entry-for-entry identical — the deep-equality check the
// incremental-repair-vs-full-rebuild tests rely on, strictly stronger
// than Fingerprint (which hashes only the inputs tables are derived
// from).
func (ix *Index) TablesChecksum() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(x uint32) {
		for i := 0; i < 4; i++ {
			h ^= uint64(x & 0xff)
			h *= prime64
			x >>= 8
		}
	}
	for _, id := range ix.landmarks {
		mix(uint32(id))
	}
	for _, rows := range [2][][]int32{ix.fwd, ix.bwd} {
		for _, row := range rows {
			for _, d := range row {
				mix(uint32(d))
			}
		}
	}
	return h
}

// Graph returns the graph this index was built over.
func (ix *Index) Graph() *graph.Graph { return ix.g }
