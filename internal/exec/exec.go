// Package exec is the experiment engine's worker-pool scheduler. The
// CCDP evaluation is embarrassingly parallel — workloads in the bench
// suite, and the per-input evaluation passes within one workload's
// experiment (each feeding every layout from one decode), share no
// mutable state — so the scheduler's only jobs are bounding concurrency,
// keeping results deterministic, and folding per-worker instrumentation
// back together:
//
//   - results are keyed by task index and reassembled in input order, so
//     callers observe exactly the sequential ordering regardless of which
//     worker ran what;
//   - each worker gets its own metrics.Collector, merged into the
//     caller's via Collector.Merge after the pool drains, so hot loops
//     never contend on shared counter cache lines;
//   - the first task error, a recovered panic included, cancels the
//     pool's context (in-flight tasks finish, unstarted ones are skipped)
//     and all errors are aggregated with errors.Join in task order.
//
// Two scheduling shapes share those rules: Map, for finite task lists, and
// Stream, for ordered fan-out of an unbounded item sequence to long-lived
// stateful workers (the sharded profiling stage).
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Stream is the engine's second scheduling shape: where Map fans a finite
// task list across interchangeable workers, a Stream fans an *ordered
// sequence* of items across N long-lived stateful workers — every worker
// receives every item, in exactly the send order, on its own goroutine.
// That is the shape a sharded streaming stage needs (e.g. the sharded TRG
// profiler): each worker holds shard-local state that must evolve as a
// deterministic function of the full stream, while the expensive part of
// each item is partitioned among the workers by shard.
//
// Per-worker delivery is a bounded FIFO channel, so a producer outrunning
// the slowest worker blocks (backpressure) rather than buffering without
// limit. Workers share nothing through the Stream itself; any cross-worker
// coordination (e.g. refcounted buffer recycling) belongs to the items.
type Stream[T any] struct {
	chans []chan T
	wg    sync.WaitGroup
}

// NewStream starts workers goroutines, each invoking fn(worker, item) for
// every item sent, in send order. workers and depth (the per-worker
// channel buffer) are clamped to >= 1.
func NewStream[T any](workers, depth int, fn func(worker int, item T)) *Stream[T] {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	s := &Stream[T]{chans: make([]chan T, workers)}
	for w := range s.chans {
		ch := make(chan T, depth)
		s.chans[w] = ch
		s.wg.Add(1)
		go func(w int, ch chan T) {
			defer s.wg.Done()
			for item := range ch {
				fn(w, item)
			}
		}(w, ch)
	}
	return s
}

// Workers returns the worker count.
func (s *Stream[T]) Workers() int { return len(s.chans) }

// Send delivers item to every worker, blocking on any worker whose buffer
// is full. Send must not be called concurrently with itself or after
// Close; the single-producer restriction is what makes per-worker order
// equal send order.
func (s *Stream[T]) Send(item T) {
	for _, ch := range s.chans {
		ch <- item
	}
}

// Close stops accepting items and blocks until every worker has drained
// its buffer and exited. It must be called exactly once.
func (s *Stream[T]) Close() {
	for _, ch := range s.chans {
		close(ch)
	}
	s.wg.Wait()
}

// Task is one independent unit of work. mc is the worker-local collector
// (nil when the caller collects no metrics); the task's result must
// depend only on its own inputs so that reassembly by index reproduces
// the sequential outcome.
type Task[T any] func(ctx context.Context, mc *metrics.Collector) (T, error)

// Map runs tasks on a bounded worker pool and returns their results in
// task order. parallelism <= 0 selects GOMAXPROCS; 1 degenerates to an
// in-order single worker. mc, when non-nil, receives the merged
// per-worker collectors after every worker has exited. The returned
// error is errors.Join over the per-task errors (nil when all succeed);
// tasks skipped after a cancellation report a wrapped context error. A
// task that panics fails with an error carrying the panic value and
// stack, and cancels the rest like any other task error.
func Map[T any](ctx context.Context, parallelism int, mc *metrics.Collector, tasks []Task[T]) ([]T, error) {
	n := len(tasks)
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var next atomic.Int64
	workerCols := make([]*metrics.Collector, parallelism)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		var wmc *metrics.Collector
		if mc != nil {
			wmc = metrics.New()
			workerCols[w] = wmc
		}
		wg.Add(1)
		go func(wmc *metrics.Collector) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = fmt.Errorf("exec: task %d skipped: %w", i, err)
					continue
				}
				res, err := run(ctx, i, tasks[i], wmc)
				results[i] = res
				if err != nil {
					errs[i] = err
					cancel()
				}
			}
		}(wmc)
	}
	wg.Wait()
	for _, c := range workerCols {
		mc.Merge(c)
	}
	return results, errors.Join(errs...)
}

// run runs task i, turning a panic on the worker into the task's error.
func run[T any](ctx context.Context, i int, task Task[T], mc *metrics.Collector) (res T, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("exec: task %d panicked: %v\n%s", i, v, debug.Stack())
		}
	}()
	return task(ctx, mc)
}
