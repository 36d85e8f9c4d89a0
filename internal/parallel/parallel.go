// Package parallel implements the deterministic bounded worker pool
// behind every parallel experiment in this repository.
//
// The determinism contract (DESIGN.md §8–§9) demands that every figure
// and table be byte-identical regardless of how many workers produced
// it. The pool guarantees that by construction rather than by
// synchronization discipline:
//
//   - Work is indexed. A batch of n independent tasks is identified by
//     the integers [0, n); every task writes its result into its own
//     index of a caller-owned slice, so "collection in submission
//     order" is automatic and free of cross-worker communication.
//   - Seeds are pre-derived. A task must derive all of its randomness
//     from its index (e.g. baseSeed + i*SeedStride) and construct its
//     own xrand stream; goroutines never share a generator. The
//     cdvet rng-discipline rule and the rngworkers fixture pin this.
//   - Errors are ordered. Every task runs to completion regardless of
//     other tasks' failures, and the error returned is the one at the
//     lowest index — the same error a sequential loop would surface,
//     for any worker count.
//
// A single-worker request runs inline on the calling goroutine: the
// workers=1 configuration is the sequential reference implementation
// the parallel paths are tested against.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the error a task that panicked resolves to: execution
// is supervised, so one panicking task cannot take down the whole
// process (and with it every sibling's completed work). It records the
// task index, the recovered value, and the goroutine stack at the
// panic site for debugging.
type PanicError struct {
	// Index is the task index that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the formatted goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// runTask invokes task(i), converting a panic into a *PanicError so
// the pool's ordered-error contract holds even for crashing tasks.
func runTask(task func(i int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return task(i)
}

// SeedStride is the canonical per-index seed increment (the golden
// ratio in fixed point, the same constant splitmix64 uses). Tasks that
// need one derived seed per index should use baseSeed + i*SeedStride:
// consecutive seeds land in decorrelated xrand streams.
const SeedStride = 0x9e3779b97f4a7c15

// Workers resolves a worker-count request: values <= 0 select
// runtime.GOMAXPROCS(0), anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs task(i) for every i in [0, n) on at most workers
// concurrent goroutines (workers <= 0 selects GOMAXPROCS) and blocks
// until all tasks have finished. Tasks communicate results exclusively
// by writing to their own index of caller-owned slices; ForEach
// provides the completion barrier that makes those writes visible to
// the caller.
//
// Every task runs even if an earlier one failed, and the returned
// error is the lowest-index one — both choices keep the observable
// outcome independent of scheduling, so output is byte-identical for
// any worker count >= 1. A panicking task is recovered into a
// *PanicError at its index (carrying the stack) instead of crashing
// the process, on both the sequential and pooled paths.
func ForEach(workers, n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		// Sequential reference path: no goroutines, same semantics.
		var first error
		for i := 0; i < n; i++ {
			if err := runTask(task, i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = runTask(task, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs task(i) for every i in [0, n) on the pool and returns the
// results in index order. The error, if any, is the lowest-index one;
// the partial results are still returned so callers that treat some
// errors as data (e.g. stalls pinned at the tick budget) can decide
// per index.
func Map[T any](workers, n int, task func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := task(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
