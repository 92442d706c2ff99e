// Package sched provides the dynamic block scheduler of the
// repository's parallel similarity kernels (all-pairs cosine and DTW).
//
// Instead of handing each worker one static contiguous range up front —
// which strands a straggler with an oversized slice whenever n is not a
// multiple of the worker count, or when per-item cost is uneven —
// workers repeatedly claim the next fixed-size block of indices off a
// shared atomic counter until the range is exhausted. Load balancing is
// automatic: a worker that finishes a cheap block immediately pulls the
// next one, so the tail of the computation is at most one block long
// per worker.
package sched

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic recovered from a scheduled block so a bug in
// one worker surfaces as an error on the calling goroutine instead of
// killing the process (or, with other workers parked, deadlocking it).
// The stack is captured at the panic site.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: worker panic: %v\n%s", e.Value, e.Stack)
}

// Run partitions [0, n) into blocks of the given size and executes
// fn(worker, lo, hi) once for every block.
//
// With workers <= 1 the blocks run inline on the calling goroutine, in
// ascending order. Otherwise up to workers goroutines claim blocks from
// a shared counter; fn must be safe for concurrent calls on disjoint
// [lo, hi) ranges. The worker index is in [0, workers), so callers can
// address preallocated per-worker scratch. The first error returned by
// fn stops further claims (blocks already in flight still finish) and
// is returned; which later blocks were abandoned is unspecified, so
// callers must treat their output as invalid on error. A panic in fn is
// recovered into a *PanicError and treated like a first error, on both
// the inline and the fan-out path.
func Run(n, block, workers int, fn func(worker, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if block <= 0 {
		block = 1
	}
	if blocks := (n + block - 1) / block; workers > blocks {
		workers = blocks
	}
	if workers <= 1 {
		for lo := 0; lo < n; lo += block {
			hi := lo + block
			if hi > n {
				hi = n
			}
			if err := safeCall(fn, 0, lo, hi); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		stopped  atomic.Bool
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stopped.Load() {
				lo := int(next.Add(int64(block))) - block
				if lo >= n {
					return
				}
				hi := lo + block
				if hi > n {
					hi = n
				}
				if err := safeCall(fn, w, lo, hi); err != nil {
					errOnce.Do(func() { firstErr = err })
					stopped.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// safeCall invokes one block, converting a panic into a *PanicError.
func safeCall(fn func(worker, lo, hi int) error, w, lo, hi int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(w, lo, hi)
}
