package landmark

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

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
// metamorphic churn suite pins). A "table" here is one column of the
// node-major rows: column i < L holds δ(w_i, ·), column L+i holds δ(·, w_i).
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
// dirty mask (true where any landmark's fwd or bwd entry changed), and
// repair stats.
//
// The tables are repaired concurrently on all cores, each into a list of
// changed entries. The merge is copy-on-write per row page: it buckets the
// changed entries by page, copies each page that holds a dirty node
// exactly once (on the same workers, one page per job), writes the new
// entries into the copy, and shares every other page with old by pointer. old is not modified;
// sharing is safe because both indexes are immutable.
func Repair(newG *graph.Graph, old *Index, changes []graph.EdgeChange) (*Index, []bool, RepairStats, error) {
	n := old.g.NumNodes()
	if newG.NumNodes() != n {
		return nil, nil, RepairStats{}, fmt.Errorf("landmark: repair: graph has %d nodes, index was built over %d", newG.NumNodes(), n)
	}
	L := len(old.landmarks)
	stats := RepairStats{Landmarks: L}

	damaged := make([]bool, old.width) // per column
	for _, c := range changes {
		if c.U == c.V {
			continue // self-loops never lie on shortest paths
		}
		ru, rv := old.row(c.U), old.row(c.V)
		for i := 0; i < L; i++ {
			damaged[i] = damaged[i] || rowDamaged(ru[i], rv[i], c.Old, c.New)
			damaged[L+i] = damaged[L+i] || rowDamaged(rv[L+i], ru[L+i], c.Old, c.New)
		}
	}

	type job struct {
		col int
		// Results, written only by the goroutine that runs the job.
		changed []graph.NodeID // nodes whose entry differs from old
		values  []int32        // their new entries
		settled int
	}
	var jobs []*job
	for col, d := range damaged {
		if !d {
			continue
		}
		jobs = append(jobs, &job{col: col})
		if col < L {
			stats.FwdRepaired++
		} else {
			stats.BwdRepaired++
		}
	}
	runJobs(jobs, func(s *repairScratch, j *job) {
		// Each job writes only its own result fields; a column is a pure
		// function of (newG, landmark) whichever way it is computed, so the
		// repaired index is identical at every GOMAXPROCS
		// (TestRepairMatchesFullRebuild, TestRepairLaw* at GOMAXPROCS 1 and 4).
		var ok bool
		if j.changed, j.values, j.settled, ok = repairRow(s, old, newG, j.col, changes); ok {
			return
		}
		dir, root := old.column(j.col)
		for v, d := range sssp.Dijkstra(newG, dir, root) {
			e := compress1(d)
			if e != unreach32 {
				j.settled++ // Dijkstra pops every reachable node exactly once non-stale
			}
			if e != old.row(graph.NodeID(v))[j.col] {
				j.changed = append(j.changed, graph.NodeID(v))
				j.values = append(j.values, e)
			}
		}
	})

	// Merge page by page, so each page is copied and written while it is
	// in cache: bucket the changed entries by page (a counting sort over
	// the jobs' lists), then copy each page that received one and apply its
	// writes. Every other page is shared with old. The copies read cold
	// memory — 600+ pages on an 8-op delta over 90k nodes — so they run on
	// the workers too.
	dirty := make([]bool, n)
	start := make([]int, len(old.pages)+1) // page p's writes are at [start[p], start[p+1])
	for _, j := range jobs {
		for _, v := range j.changed {
			start[v>>pageShift+1]++
			if !dirty[v] {
				dirty[v] = true
				stats.DirtyNodes++
			}
		}
		stats.Settled += j.settled
	}
	for p := range old.pages {
		start[p+1] += start[p]
	}
	type write struct{ off, d int32 } // entry offset within the page, new entry
	writes := make([]write, start[len(old.pages)])
	next := slices.Clone(start[:len(old.pages)])
	for _, j := range jobs {
		for k, v := range j.changed {
			p := v >> pageShift
			writes[next[p]] = write{int32(int(v&(pageNodes-1))*old.width + j.col), j.values[k]}
			next[p]++
		}
	}
	pages := slices.Clone(old.pages)
	var fresh []int
	for p := range pages {
		if start[p] < start[p+1] {
			fresh = append(fresh, p)
		}
	}
	runJobs(fresh, func(_ *repairScratch, p int) {
		// Each job owns page p: it writes only pages[p] and the copy.
		page := slices.Clone(old.pages[p])
		for _, w := range writes[start[p]:start[p+1]] {
			page[w.off] = w.d
		}
		pages[p] = page
	})

	return assemble(newG, old.shape.apply(changes), old.landmarks, pages), dirty, stats, nil
}

// column names the table behind row column col: its search direction and
// root landmark.
func (ix *Index) column(col int) (graph.Direction, graph.NodeID) {
	if L := len(ix.landmarks); col >= L {
		return graph.Backward, ix.landmarks[col-L]
	}
	return graph.Forward, ix.landmarks[col]
}

// repairScratch is one repair worker's state, reused across the tables it
// repairs.
type repairScratch struct {
	ov      overlay
	q       pqueue.BucketQueue
	touched []graph.NodeID
}

// repairRow brings one table — column col of old's rows — up to date by
// batch dynamic SSSP (after Ramalingam & Reps) instead of a fresh
// Dijkstra, so its cost follows the region whose distances can change,
// not n. Old entries are read through old's rows; new labels live in the
// sparse overlay s.ov, so nothing of size n is allocated or copied. It
// returns the nodes whose entry differs from old (changed), their new
// entries (values), and the number of nodes settled. ok == false means
// the repair met an inexact far32 entry it would have had to read or
// write; the caller then recomputes the table from scratch.
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
func repairRow(s *repairScratch, old *Index, newG *graph.Graph, col int, changes []graph.EdgeChange) (changed []graph.NodeID, values []int32, settled int, ok bool) {
	dir, root := old.column(col)
	ov, q := &s.ov, &s.q
	ov.reset(old, col)
	q.Reset()
	touched := s.touched[:0] // the marked nodes, then unmarked ones as they improve
	defer func() { s.touched = touched }()
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

	// Step 1. touched doubles as the closure's work list. A marked node's
	// label is unreachable until step 2 relabels it; nothing reads it
	// before then.
	mark := func(tail, head graph.NodeID, w graph.Weight) {
		if head == root {
			return
		}
		if h := ov.at(head); !h.marked && label(ov.at(tail).old)+w == label(h.old) {
			h.d, h.marked, h.listed = unreach32, true, true
			touched = append(touched, head)
		}
	}
	for _, c := range changes {
		if tail, head := ends(c); c.New > c.Old && tail != head && ov.at(tail).old != unreach32 {
			mark(tail, head, c.Old)
		}
	}
	for k := 0; k < len(touched); k++ {
		v := touched[k]
		for _, e := range old.g.Edges(dir, v) {
			mark(v, e.To, e.W)
		}
	}

	// relax offers label d to node v and queues v when that improves it.
	relax := func(v graph.NodeID, d graph.Weight) {
		e := ov.at(v)
		if d >= label(e.d) {
			return
		}
		if d >= far32 {
			inexact = true
			return
		}
		if !e.listed {
			e.listed = true
			touched = append(touched, v) // first write: labels only go down from here
		}
		e.d = int32(d)
		q.Push(v, d)
	}

	// Step 2. Only unmarked entries are read, and no unmarked entry is
	// written until step 3, so one pass suffices.
	for _, v := range touched {
		best := graph.Infinity
		for _, e := range newG.Edges(dir.Reverse(), v) {
			if x := ov.at(e.To); !x.marked {
				best = min(best, label(x.d)+e.W)
			}
		}
		relax(v, best)
	}
	// Step 3.
	for _, c := range changes {
		if tail, head := ends(c); c.New < c.Old && tail != head && ov.at(tail).d != unreach32 {
			relax(head, label(ov.at(tail).d)+c.New)
		}
	}
	// Step 4.
	for q.Len() > 0 && !inexact {
		v, d := q.Pop()
		if d > graph.Weight(ov.at(v).d) {
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
	changed, values = make([]graph.NodeID, 0, len(touched)), make([]int32, 0, len(touched))
	for _, v := range touched {
		if e := ov.at(v); e.d != e.old {
			changed = append(changed, v)
			values = append(values, e.d)
		}
	}
	return changed, values, settled, true
}

// overlay is the sparse working copy of the table repairRow is repairing:
// one entry per node it has read, holding the old entry and the current
// label. It is paged like the index: a block of 64 entries is allocated
// the first time one of its nodes is read and kept for the worker's later
// tables. Entries are stamped with the table's generation, so moving to
// the next table clears nothing.
type overlay struct {
	blocks []*overlayBlock // by v >> pageShift
	gen    uint32
	old    *Index
	col    int
}

type overlayBlock [pageNodes]overlayEntry

type overlayEntry struct {
	old, d int32  // the entry in the old table; the node's current label
	gen    uint32 // the entry is stale unless gen is the overlay's
	marked bool   // step 1 marked the node
	listed bool   // the node is on repairRow's touched list
}

// reset starts on column col of old.
func (o *overlay) reset(old *Index, col int) {
	if o.blocks == nil {
		o.blocks = make([]*overlayBlock, len(old.pages))
	}
	o.gen++
	o.old, o.col = old, col
}

// at returns v's entry, reading v's old entry into it on first use.
func (o *overlay) at(v graph.NodeID) *overlayEntry {
	p := v >> pageShift
	b := o.blocks[p]
	if b == nil {
		b = new(overlayBlock)
		o.blocks[p] = b
	}
	e := &b[v&(pageNodes-1)]
	if e.gen != o.gen {
		d := o.old.pages[p][int(v&(pageNodes-1))*o.old.width+o.col]
		*e = overlayEntry{old: d, d: d, gen: o.gen}
	}
	return e
}

// rowDamaged applies the damage rules to one table, given the entries of
// the changed edge's two ends. For a forward table pass (dt, dh) =
// (δ(w,U), δ(w,V)); for a backward table the roles swap: the relaxation
// there is dist[head-side] + w improving dist[tail-side], which is the
// same formula with (dt, dh) = (δ(V,w), δ(U,w)).
func rowDamaged(dt, dh int32, oldW, newW graph.Weight) bool {
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

// runJobs executes the jobs on up to GOMAXPROCS goroutines, each with its
// own repairScratch, returning when all are done. It is the package's one
// job pool: Repair's tables and pages and BuildWithLandmarks's tables.
func runJobs[T any](jobs []T, run func(*repairScratch, T)) {
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	if workers <= 1 {
		var s repairScratch
		for _, j := range jobs {
			run(&s, j)
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
		// Workers claim job indices through a mutex and each job writes
		// only its own result fields; output is identical at every worker
		// count (TestRepairLaw* at GOMAXPROCS 1 and 4).
		go func() {
			defer wg.Done()
			var s repairScratch
			for {
				t := claim()
				if t >= len(jobs) {
					return
				}
				run(&s, jobs[t])
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
	// Table-major fold order: every forward table, then every backward
	// one, each over nodes 0…n−1 — column by column through the pages.
	for col := 0; col < ix.width; col++ {
		for _, p := range ix.pages {
			for k := col; k < len(p); k += ix.width {
				mix(uint32(p[k]))
			}
		}
	}
	return h
}

// Graph returns the graph this index was built over.
func (ix *Index) Graph() *graph.Graph { return ix.g }
