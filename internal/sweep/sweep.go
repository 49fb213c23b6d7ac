// Package sweep fans the independent cells of an experiment grid across a
// pool of worker goroutines and collects their results in deterministic cell
// order.
//
// Every monobench experiment is a grid — seeds × configurations × executor
// modes — whose cells share no mutable state: each cell builds its own
// cluster, engine, and workload from scratch, runs to completion in virtual
// time, and returns a value. That makes the grid embarrassingly parallel,
// and because collection is by cell index (not completion order), the
// assembled output of a parallel sweep is byte-identical to a serial one.
// internal/figures runs all of its grids through this package, and
// cmd/monobench exposes the worker count as --parallel.
//
// Run takes a context and a worker count: with one worker (or fewer) the
// cells run inline on the calling goroutine, so --parallel 1 is exactly the
// pre-sweep serial execution, and cells not yet started when the context is
// done fail instead of running.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// runCell executes one cell, converting a panic into a per-cell error so a
// crashing configuration is reported as a failed cell in the sweep's result
// instead of killing the whole process.
func runCell[T any](ctx context.Context, fn func(cell int) (T, error), i int) (v T, err error) {
	if err := ctx.Err(); err != nil {
		return v, fmt.Errorf("not started: %w", err)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cell panicked: %v", r)
		}
	}()
	return fn(i)
}

// joinCellErrors aggregates per-cell failures in cell order (lowest index
// first), so the combined error is deterministic and names every failed
// cell. Returns nil when no cell failed.
func joinCellErrors(errs []error) error {
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("sweep: cell %d: %w", i, err))
		}
	}
	if len(failed) == 0 {
		return nil
	}
	if len(failed) == 1 {
		return failed[0]
	}
	return fmt.Errorf("sweep: %d cells failed: %w", len(failed), errors.Join(failed...))
}

// Run executes cells 0..cells-1 with fn on up to workers goroutines and
// returns the results indexed by cell. Cells must be independent: fn is
// called concurrently from multiple goroutines and must not share mutable
// state across cells. Fewer than one worker means one.
//
// Determinism contract: the returned slice is ordered by cell index, and
// when any cells fail, the combined error lists the failing cells in
// ascending index order — both independent of goroutine scheduling. A panic
// in a cell is recovered into that cell's error, annotated with the cell
// number, so one crashing configuration marks its cell failed instead of
// killing the sweep; healthy cells still run and their results are returned
// alongside the error. Once ctx is done, cells not yet started fail with an
// error wrapping ctx.Err() rather than running; cells already running see
// ctx themselves and stop as their runner allows.
func Run[T any](ctx context.Context, workers, cells int, fn func(cell int) (T, error)) ([]T, error) {
	if cells <= 0 {
		return nil, nil
	}
	results := make([]T, cells)
	errs := make([]error, cells)
	if workers > cells {
		workers = cells
	}
	if workers <= 1 {
		for i := 0; i < cells; i++ {
			results[i], errs[i] = runCell(ctx, fn, i)
		}
		return results, joinCellErrors(errs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cells {
					return
				}
				results[i], errs[i] = runCell(ctx, fn, i)
			}
		}()
	}
	wg.Wait()
	return results, joinCellErrors(errs)
}
