package sweep

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// settle fails t unless the goroutine count falls back to base: a panic
// that unwinds a sweep must leave no worker blocked on its stream.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines run after the panic unwound, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// mustPanic runs f and fails t unless it panics.
func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f()
}

// TestReplayPanicReleasesWorkers panics the shared replay's decoder
// goroutine mid-stream, from a progress callback that runs right after
// the heap lanes resolved a batch: the replay workers must still drain
// and exit, and the Prep must stay usable.
func TestReplayPanicReleasesWorkers(t *testing.T) {
	g := Grid{Sizes: []int64{4096, 8192}, Assocs: []int{1, 2}, Layouts: []string{"natural", "ccdp"}}
	req := smallRequest(t, "gcc", 0.05, g)
	var armed atomic.Bool
	req.OnProgress = func(pr Progress) {
		if armed.Load() && pr.Phase == "replay" && pr.Batches == 2 {
			panic("progress callback")
		}
	}
	p := mustPrep(t, req)
	base := runtime.NumGoroutine()
	armed.Store(true)
	mustPanic(t, func() { p.RunShared(2) })
	settle(t, base)

	armed.Store(false)
	res, err := p.RunShared(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches < 3 {
		t.Fatalf("the replay ran %d batches; the panic was not mid-stream", res.Batches)
	}
}

// panicCtx is a live context whose Err panics on its n-th call: the
// profile broadcast's decoder checks it once per batch.
type panicCtx struct {
	context.Context
	left atomic.Int32
}

func (c *panicCtx) Err() error {
	if c.left.Add(-1) == 0 {
		panic("context probe")
	}
	return c.Context.Err()
}

// TestProfileBroadcastPanicReleasesWorkers panics the train-side
// broadcast's decoder mid-stream while a family builder runs its shard
// workers: both the broadcast's workers and the builder's must exit.
func TestProfileBroadcastPanicReleasesWorkers(t *testing.T) {
	g := Grid{Sizes: []int64{4096, 8192}, Layouts: []string{"ccdp"}}
	req := smallRequest(t, "gcc", 0.05, g)
	p := mustPrep(t, req)
	var keys []string
	optsFor := map[string]sim.Options{}
	for i, c := range p.cells {
		k := c.profileKey(req.Options)
		opts := p.cellOpts[i]
		opts.Profile.AdaptiveWarmup = -1 // shard workers from the first record
		keys = append(keys, k)
		optsFor[k] = opts
	}
	if fams := profileFamilies(keys, optsFor); len(fams) != 1 || len(fams[0]) != 2 {
		t.Fatalf("families %v, want one of two configs", fams)
	}
	base := runtime.NumGoroutine()
	ctx := &panicCtx{Context: context.Background()}
	ctx.left.Store(3)
	p.req.Context = ctx
	mustPanic(t, func() { p.broadcastProfiles(keys, optsFor, 5) })
	settle(t, base)
}
