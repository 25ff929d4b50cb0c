package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kpj/internal/fault"
)

// ErrWorkerPanic reports that a worker goroutine's task panicked. The
// pool recovers the panic and injects this into the worker's Bound, so
// the query degrades into the standard truncation contract (the paths
// emitted before the panic are a valid prefix) instead of killing the
// process and deadlocking the round barrier.
var ErrWorkerPanic = errors.New("core: worker panicked")

// WorkspacePool supplies per-worker scratch workspaces for intra-query
// parallelism. Get must return a workspace with Fits(n); Put returns one
// for reuse. Implementations must be safe for concurrent use. The root
// package backs this with a sync.Pool on each Graph so worker workspaces
// are shared with the single-query hot path.
type WorkspacePool interface {
	Get(n int) *Workspace
	Put(ws *Workspace)
}

// Pool fans the independent computations of one query — the subspace
// searches of an IterBound round, CompLB calls at division time, the eager
// divisions' exact searches (DA, DA-SPT) — across a fixed set of
// worker goroutines. Each worker owns a Workspace (with its share of the
// query's Bound installed) and a private Stats, so the searches themselves
// run without any synchronization; Close merges the stats and returns the
// workspaces.
//
// A nil *Pool is valid and means "sequential": Workers reports 0 and Run
// and Close are no-ops, so the engine can treat Parallelism=1 as the
// degenerate case of the same code path.
type Pool struct {
	slots  []poolSlot
	rounds chan poolRound
	src    WorkspacePool
	stats  *Stats
}

type poolSlot struct {
	ws *Workspace
	st Stats
}

// poolRound is one barrier of tasks: workers claim task indexes from next
// until m is exhausted. Every copy sent on the rounds channel accounts for
// exactly one wg.Done, whichever worker consumes it.
type poolRound struct {
	m    int
	next *atomic.Int64
	f    func(task, slot int)
	wg   *sync.WaitGroup
	// share is the even per-worker task share for this round (⌈m/n⌉ over
	// the n workers dispatched); tasks claimed beyond it count as steals.
	share int
}

// newPool materializes the intra-query worker pool described by the
// options: nil when opt.Parallelism <= 1 (the sequential case). Workspaces
// come from opt.Workspaces when set (falling back to fresh allocation) and
// each receives a share of the query's Bound, so budget and cancellation
// hold across all workers. Call after prepare (which materializes the
// Bound) and Close when the query is done.
func (opt *Options) newPool(n int) *Pool {
	if opt.Parallelism <= 1 {
		return nil
	}
	p := &Pool{
		slots:  make([]poolSlot, opt.Parallelism),
		rounds: make(chan poolRound),
		src:    opt.Workspaces,
		stats:  opt.Stats,
	}
	bounds := opt.bound.Share(opt.Parallelism)
	for i := range p.slots {
		var ws *Workspace
		if p.src != nil {
			ws = p.src.Get(n)
		}
		if ws == nil || !ws.Fits(n) {
			ws = NewWorkspace(n)
		}
		ws.bound = bounds[i]
		// Worker SearchResults live in the worker's arenas; rewinding them
		// here invalidates only results of the workspace's previous query.
		ws.beginQuery(false)
		p.slots[i].ws = ws
		// Workers only run tasks whose results are merged in task order,
		// so scheduling never reaches the output (TestParallelDeterminism,
		// the oracle suite at Parallelism 4).
		go p.worker(i)
	}
	return p
}

// Workers returns the number of worker slots; 0 for the nil (sequential)
// pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 0
	}
	return len(p.slots)
}

// Run executes f for every task index in [0, m) across the workers and
// returns when all are done. f receives the worker's private Workspace and
// Stats; it must not touch shared mutable state. Run must not be called
// concurrently with itself or Close.
func (p *Pool) Run(m int, f func(task int, ws *Workspace, st *Stats)) {
	if p == nil || m == 0 {
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	r := poolRound{
		m:    m,
		next: &next,
		wg:   &wg,
		f: func(task, slot int) {
			s := &p.slots[slot]
			f(task, s.ws, &s.st)
		},
	}
	n := len(p.slots)
	if m < n {
		n = m
	}
	r.share = (m + n - 1) / n
	if em := Metrics(); em != nil {
		em.PoolRounds.Inc()
		em.PoolTasks.Add(int64(m))
	}
	wg.Add(n)
	for i := 0; i < n; i++ {
		p.rounds <- r
	}
	wg.Wait()
}

func (p *Pool) worker(slot int) {
	for r := range p.rounds {
		claimed := 0
		for {
			i := int(r.next.Add(1)) - 1
			if i >= r.m {
				break
			}
			p.runTask(r, i, slot)
			claimed++
		}
		// A fast worker that claimed past its even share absorbed imbalance
		// left by slower peers — the "steal" signal for pool tuning.
		if em := Metrics(); em != nil && claimed > r.share {
			em.PoolSteals.Add(int64(claimed - r.share))
		}
		r.wg.Done()
	}
}

// runTask executes one claimed task behind panic recovery and the
// pool.worker fault point. A recovered panic (organic or injected)
// becomes an ErrWorkerPanic injection into the worker's bound: the
// round still completes its barrier, and the caller must consult
// Bound.Err before trusting the round's outputs, since a panicked (or
// fault-skipped) task leaves its slot of the result unset. With no
// bound to carry the error the panic is re-raised — silently swallowing
// it would corrupt results, which is worse than the crash.
func (p *Pool) runTask(r poolRound, i, slot int) {
	b := p.slots[slot].ws.bound
	defer func() {
		if rec := recover(); rec != nil {
			if b == nil {
				panic(rec)
			}
			b.inject(fmt.Errorf("%w: %v", ErrWorkerPanic, rec))
		}
	}()
	if ferr := fault.Hit(fault.PoolWorker); ferr != nil {
		b.inject(ferr)
	}
	r.f(i, slot)
}

// Close stops the workers, merges their private stats into the query's
// Stats, returns unspent budget allowances to the shared pool, and hands
// the workspaces back to the WorkspacePool. Safe on a nil pool.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	close(p.rounds)
	for i := range p.slots {
		s := &p.slots[i]
		s.ws.bound.release()
		s.ws.bound = nil
		if p.stats != nil {
			p.stats.Add(s.st)
		}
		if p.src != nil {
			p.src.Put(s.ws)
		}
	}
}
