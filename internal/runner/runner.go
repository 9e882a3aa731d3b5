// Package runner is the concurrent experiment-execution engine: a
// bounded worker pool that fans independent simulations out across
// GOMAXPROCS goroutines while keeping every observable result
// bit-identical to a sequential run.
//
// Determinism is the design constraint everything here serves. The
// simulator is a pure function of (configuration, kernel, policy), so
// parallel execution preserves results exactly as long as three rules
// hold, and this package enforces all three:
//
//  1. Tasks never share mutable state — each task builds its own GPU
//     and policy instance (Map hands the task only its index).
//  2. Results aggregate in task-index order, never completion order
//     (Map returns a slice indexed like the input).
//  3. Randomised work derives its streams as a pure function of the
//     base seed and a stable identifier — SubSeed(base, id) for
//     decorrelated streams (the workload catalogue), explicit
//     base-plus-index offsets where a canonical seed family must be
//     preserved (random-restart trials) — never from a shared
//     generator whose consumption order would depend on scheduling.
//
// Errors propagate like a sequential loop's: the error of the
// lowest-indexed failing task wins, and the shared Context cancels the
// remaining work so a failing sweep aborts quickly.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// NumWorkers normalises a requested worker count: values <= 0 select
// GOMAXPROCS, everything else is returned unchanged.
func NumWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines (workers <= 0 means GOMAXPROCS) and returns the results
// in index order. The first error — "first" by task index, matching
// the sequential loop it replaces — cancels the derived context and is
// returned after in-flight tasks drain. A nil ctx is treated as
// context.Background(); cancelling ctx stops unstarted tasks and
// returns the cancellation cause.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return nil, ctx.Err()
	}
	w := NumWorkers(workers)
	if w > n {
		w = n
	}
	out := make([]T, n)
	if w == 1 {
		// Dedicated sequential path: no goroutines, so a single-worker
		// run is byte-for-byte the loop it replaces (and trivially
		// race-free under the race detector).
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	tctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu      sync.Mutex
		errIdx  = -1
		taskErr error
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	next.Store(-1)
	fail := func(i int, err error) {
		mu.Lock()
		if errIdx == -1 || i < errIdx {
			errIdx, taskErr = i, err
		}
		mu.Unlock()
		cancel()
	}
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if tctx.Err() != nil {
					return
				}
				v, err := fn(tctx, i)
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if taskErr != nil {
		return nil, taskErr
	}
	// The parent may have been cancelled mid-run, leaving holes in out;
	// report that rather than returning a partial, hole-filled slice.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MapSlice is Map over a slice: fn receives each item along with its
// index, and the results come back in input order.
func MapSlice[S, T any](ctx context.Context, workers int, items []S, fn func(ctx context.Context, i int, item S) (T, error)) ([]T, error) {
	return Map(ctx, workers, len(items), func(ctx context.Context, i int) (T, error) {
		return fn(ctx, i, items[i])
	})
}

// SubSeed derives the seed for task id of a run seeded with base: a
// splitmix64 finalisation of the pair, so adjacent ids yield
// decorrelated streams and the mapping is a pure function — the
// property that keeps seeded parallel runs identical to sequential
// ones regardless of which worker picks the task up.
func SubSeed(base, id int64) int64 {
	x := uint64(base)*0x9e3779b97f4a7c15 + uint64(id)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}
