package harness

// This file holds the ordered parallel-execution primitive the sweep
// engine runs on. ParallelForWorkersCtx (harness.go) is the unordered
// fan-out; RunOrderedDispatchCtx adds the property the streaming sweep
// writers need — results are emitted in job-index order, incrementally,
// no matter how the scheduler interleaves the workers — so output files
// are byte-identical across worker counts.
//
// Both take a context with a hard invariant: cancellation stops the
// *dispatch* of new jobs, never the emission of dispatched ones. Every
// index handed to a worker runs to completion and is emitted, so the
// emitted set is always an exact contiguous prefix [0, d) of the job
// sequence — which is what lets a cancelled sweep's output file serve
// as a valid -resume prefix.

import (
	"context"
	"sync"
)

// RunOrderedDispatchCtx executes run(worker, i) for i in [0, n) on up
// to workers goroutines and calls emit(i, v) for every job in strictly
// increasing index order, streaming each completed prefix as soon as it
// is available. emit is never called concurrently; run must be safe for
// concurrent invocation. worker is the index of the goroutine running
// the job, so callers can thread per-worker scratch state without
// locking — it must never influence results, only which scratch memory
// computes them (any violation shows as a byte diff across -workers).
//
// order fixes the dispatch sequence: order[k] is the k-th job index
// handed to the pool, so a scheduler can dispatch expensive jobs first
// (killing tail latency) while emit still runs in index order — the
// permutation can never change the emitted bytes, only the wall clock.
// A nil order means identity dispatch; a non-nil order must be a
// permutation of [0, n) (length mismatches panic — a wiring bug, not a
// runtime condition). The serial path (workers ≤ 1 or n == 1) ignores
// the permutation: nothing overlaps, so index-order dispatch is both
// legal and strictly better under cancellation.
//
// When ctx is cancelled no further jobs are dispatched, but every job
// already handed to a worker runs to completion — the pool drains at a
// job boundary rather than tearing mid-job. With identity dispatch the
// emitted set is then the exact prefix [0, d); with a permuted dispatch
// the completed set is a prefix of the *dispatch* sequence, the emitted
// set is the longest contiguous index prefix [0, d) inside it, and
// completed jobs beyond d are discarded. Either way the output is an
// exact contiguous, resumable prefix. Returns ctx.Err() if cancellation
// prevented any job from being dispatched, nil if all n jobs ran.
func RunOrderedDispatchCtx[T any](ctx context.Context, n, workers int, order []int, run func(worker, i int) T, emit func(i int, v T)) error {
	if n <= 0 {
		return nil
	}
	if order != nil && len(order) != n {
		panic("harness: dispatch order length does not match job count")
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			emit(i, run(0, i))
		}
		return nil
	}
	var (
		mu   sync.Mutex
		done = make([]bool, n)
		vals = make([]T, n)
		next int
	)
	return ParallelForWorkersCtx(ctx, n, workers, func(worker, k int) {
		i := k
		if order != nil {
			i = order[k]
		}
		v := run(worker, i)
		mu.Lock()
		defer mu.Unlock()
		vals[i], done[i] = v, true
		for next < n && done[next] {
			emit(next, vals[next])
			var zero T
			vals[next] = zero // release the emitted value
			next++
		}
	})
}
