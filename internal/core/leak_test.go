package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"kpj/internal/fault"
	"kpj/internal/leaktest"
)

// TestPoolCloseLeavesNoGoroutines: a pool's workers must all exit at
// Close, across multiple rounds of work.
func TestPoolCloseLeavesNoGoroutines(t *testing.T) {
	defer leaktest.Check(t)()
	opt := &Options{Parallelism: 4}
	opt.bound = NewBound(context.Background(), 0)
	p := opt.newPool(8)
	var ran atomic.Int64
	for round := 0; round < 3; round++ {
		p.Run(32, func(task int, ws *Workspace, st *Stats) { ran.Add(1) })
	}
	p.Close()
	if got := ran.Load(); got != 96 {
		t.Fatalf("ran %d tasks, want 96", got)
	}
}

// TestPoolWorkerPanicBecomesBoundError: a panic inside a pool task must
// not kill the process or strand the round's barrier — the pool recovers
// it, the round completes, and the query's bound carries ErrWorkerPanic.
func TestPoolWorkerPanicBecomesBoundError(t *testing.T) {
	defer leaktest.Check(t)()
	b := NewBound(context.Background(), 0)
	opt := &Options{Parallelism: 2}
	opt.bound = b
	p := opt.newPool(8)
	p.Run(4, func(task int, ws *Workspace, st *Stats) {
		if task == 2 {
			panic("boom")
		}
	})
	p.Close()
	if err := b.Err(); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("bound error = %v, want ErrWorkerPanic", err)
	}
}

// TestPoolFaultInjectionStopsRound: an injected pool.worker fault flows
// into the bound, the barrier still completes, and no goroutine leaks.
func TestPoolFaultInjectionStopsRound(t *testing.T) {
	defer leaktest.Check(t)()
	fault.Install(fault.New().Add(fault.Rule{Point: fault.PoolWorker, Nth: 2, Count: 1}))
	defer fault.Install(nil)
	b := NewBound(context.Background(), 0)
	opt := &Options{Parallelism: 2}
	opt.bound = b
	p := opt.newPool(8)
	p.Run(6, func(task int, ws *Workspace, st *Stats) {})
	p.Close()
	if err := b.Err(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("bound error = %v, want ErrInjected", err)
	}
}

// TestPoolInjectedPanicRecovered: a KindPanic rule at the panic-safe
// pool.worker point is recovered by the pool like an organic panic.
func TestPoolInjectedPanicRecovered(t *testing.T) {
	defer leaktest.Check(t)()
	fault.Install(fault.New().Add(fault.Rule{Point: fault.PoolWorker, Nth: 1, Count: 1, Kind: fault.KindPanic}))
	defer fault.Install(nil)
	b := NewBound(context.Background(), 0)
	opt := &Options{Parallelism: 2}
	opt.bound = b
	p := opt.newPool(8)
	p.Run(4, func(task int, ws *Workspace, st *Stats) {})
	p.Close()
	if err := b.Err(); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("bound error = %v, want ErrWorkerPanic", err)
	}
}
