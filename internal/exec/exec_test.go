package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// squareTasks builds n tasks where task i returns i*i.
func squareTasks(n int) []Task[int] {
	tasks := make([]Task[int], n)
	for i := range tasks {
		i := i
		tasks[i] = func(context.Context, *metrics.Collector) (int, error) {
			return i * i, nil
		}
	}
	return tasks
}

func TestMapReturnsResultsInTaskOrder(t *testing.T) {
	for _, par := range []int{0, 1, 2, 7, 100} {
		res, err := Map(context.Background(), par, nil, squareTasks(33))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(res) != 33 {
			t.Fatalf("parallelism %d: %d results, want 33", par, len(res))
		}
		for i, r := range res {
			if r != i*i {
				t.Fatalf("parallelism %d: result[%d] = %d, want %d", par, i, r, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	res, err := Map[int](context.Background(), 4, nil, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty task list: res %v err %v", res, err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const par = 3
	var running, peak atomic.Int64
	var mu sync.Mutex
	tasks := make([]Task[struct{}], 50)
	for i := range tasks {
		tasks[i] = func(context.Context, *metrics.Collector) (struct{}, error) {
			n := running.Add(1)
			mu.Lock()
			if n > peak.Load() {
				peak.Store(n)
			}
			mu.Unlock()
			running.Add(-1)
			return struct{}{}, nil
		}
	}
	if _, err := Map(context.Background(), par, nil, tasks); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > par {
		t.Fatalf("observed %d concurrent tasks, pool bound is %d", p, par)
	}
}

func TestMapJoinsErrors(t *testing.T) {
	boom := errors.New("boom")
	tasks := squareTasks(5)
	tasks[2] = func(context.Context, *metrics.Collector) (int, error) {
		return 0, fmt.Errorf("task two: %w", boom)
	}
	res, err := Map(context.Background(), 1, nil, tasks)
	if !errors.Is(err, boom) {
		t.Fatalf("joined error %v does not wrap the task error", err)
	}
	// Successful results before the failure are still present.
	if res[0] != 0 || res[1] != 1 {
		t.Fatalf("pre-failure results %v", res[:2])
	}
}

func TestMapCancelsAfterFirstError(t *testing.T) {
	// Sequential pool: task 0 fails, so tasks 1 and 2 must be skipped with
	// a context error, not run.
	var ran atomic.Int64
	boom := errors.New("boom")
	tasks := []Task[int]{
		func(context.Context, *metrics.Collector) (int, error) { return 0, boom },
		func(context.Context, *metrics.Collector) (int, error) { ran.Add(1); return 1, nil },
		func(context.Context, *metrics.Collector) (int, error) { ran.Add(1); return 2, nil },
	}
	_, err := Map(context.Background(), 1, nil, tasks)
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the task error", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not report the skipped tasks' cancellation", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d tasks ran after the failure on a sequential pool", n)
	}
}

// TestMapRecoversTaskPanic holds a panicking task to the error path: its
// error names the panic value and carries the stack, the tasks after it
// are skipped, and Map returns instead of the panic killing the process.
// Task 1 may run beside task 0 on a second worker; it waits for the
// cancellation the panic causes, so every later task sees it.
func TestMapRecoversTaskPanic(t *testing.T) {
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel%d", par), func(t *testing.T) {
			var ran atomic.Int64
			tasks := []Task[int]{
				func(context.Context, *metrics.Collector) (int, error) { panic("kaboom") },
				func(ctx context.Context, _ *metrics.Collector) (int, error) { <-ctx.Done(); return 0, ctx.Err() },
			}
			for i := 2; i < 6; i++ {
				tasks = append(tasks, func(context.Context, *metrics.Collector) (int, error) { ran.Add(1); return i, nil })
			}
			done := make(chan error, 1)
			go func() {
				_, err := Map(context.Background(), par, metrics.New(), tasks)
				done <- err
			}()
			var err error
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Map did not return after a task panicked")
			}
			msg := fmt.Sprint(err)
			if !strings.Contains(msg, "task 0 panicked: kaboom") || !strings.Contains(msg, "exec_test.go") {
				t.Fatalf("error does not name the panic and its stack:\n%s", msg)
			}
			for i := 2; i < 6; i++ {
				if !strings.Contains(msg, fmt.Sprintf("task %d skipped", i)) {
					t.Errorf("task %d not reported skipped:\n%s", i, msg)
				}
			}
			if n := ran.Load(); n != 0 {
				t.Errorf("%d tasks ran after the panic", n)
			}
		})
	}
}

func TestMapHonorsCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 2, nil, squareTasks(10))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: err %v, want context.Canceled", err)
	}
}

func TestMapMergesWorkerCollectors(t *testing.T) {
	mc := metrics.New()
	tasks := make([]Task[int], 20)
	for i := range tasks {
		tasks[i] = func(_ context.Context, wmc *metrics.Collector) (int, error) {
			if wmc == nil {
				return 0, errors.New("worker collector is nil despite caller collector")
			}
			wmc.Add(metrics.SimAccesses, 3)
			wmc.AddNamed("unit", 1)
			wmc.Observe(metrics.HistAccessSize, 8)
			return 0, nil
		}
	}
	if _, err := Map(context.Background(), 4, mc, tasks); err != nil {
		t.Fatal(err)
	}
	if got := mc.Get(metrics.SimAccesses); got != 60 {
		t.Fatalf("merged counter %d, want 60", got)
	}
	if got := mc.GetNamed("unit"); got != 20 {
		t.Fatalf("merged named counter %d, want 20", got)
	}
	if h, ok := mc.Snapshot().Hist("access_size_bytes"); !ok || h.Count != 20 {
		t.Fatalf("merged histogram count %d, want 20", h.Count)
	}
}

func TestMapNilCollectorGivesNilWorkerCollectors(t *testing.T) {
	tasks := make([]Task[int], 4)
	for i := range tasks {
		tasks[i] = func(_ context.Context, wmc *metrics.Collector) (int, error) {
			if wmc != nil {
				return 0, errors.New("worker collector should be nil when caller passes none")
			}
			wmc.Add(metrics.SimAccesses, 1) // nil-safe no-op must not panic
			return 0, nil
		}
	}
	if _, err := Map(context.Background(), 2, nil, tasks); err != nil {
		t.Fatal(err)
	}
}

func TestStreamBroadcastsInOrder(t *testing.T) {
	const workers, items = 4, 100
	got := make([][]int, workers)
	s := NewStream(workers, 3, func(w int, item int) {
		got[w] = append(got[w], item)
	})
	if s.Workers() != workers {
		t.Fatalf("Workers() = %d, want %d", s.Workers(), workers)
	}
	for i := 0; i < items; i++ {
		s.Send(i)
	}
	s.Close()
	for w := 0; w < workers; w++ {
		if len(got[w]) != items {
			t.Fatalf("worker %d saw %d items, want %d (every worker sees every item)", w, len(got[w]), items)
		}
		for i, v := range got[w] {
			if v != i {
				t.Fatalf("worker %d item %d = %d, want send order preserved", w, i, v)
			}
		}
	}
}

func TestStreamCloseDrains(t *testing.T) {
	var done atomic.Int64
	s := NewStream(2, 8, func(_ int, item int) {
		time.Sleep(time.Millisecond)
		done.Add(1)
	})
	for i := 0; i < 10; i++ {
		s.Send(i)
	}
	s.Close() // must block until both workers drain all 10 items
	if got := done.Load(); got != 20 {
		t.Fatalf("Close returned with %d items processed, want 20", got)
	}
}

func TestStreamClampsDegenerateArgs(t *testing.T) {
	var n atomic.Int64
	s := NewStream(0, 0, func(_ int, _ struct{}) { n.Add(1) })
	if s.Workers() != 1 {
		t.Fatalf("Workers() = %d, want clamp to 1", s.Workers())
	}
	s.Send(struct{}{})
	s.Close()
	if n.Load() != 1 {
		t.Fatalf("processed %d, want 1", n.Load())
	}
}
