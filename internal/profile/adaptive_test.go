package profile

import (
	"fmt"
	"testing"

	"repro/internal/object"
	"repro/internal/trace"
)

// Adaptive scheduling tests: the warmup heuristic must pick the schedule
// the stream's hit ratio calls for, and every schedule — sequential
// fallback, mid-stream fan-out with replica catch-up, forced parallel,
// stream shorter than the warmup window — must still match the sequential
// oracle exactly.

// missDominated sweeps a large global without ever revisiting a chunk
// inside the queue's reach: constant insert/evict churn, zero queue hits,
// so sharding would pay replicated bookkeeping for scans that never
// happen.
var missDominated = workload{
	name: "missdominated",
	run: func(tbl *object.Table, em *trace.Emitter) {
		big := tbl.AddGlobal("big", 1<<20)
		for i := 0; i < 4000; i++ {
			em.Load(big, int64(i%4096)*256, 8)
		}
	},
}

// hitDominated alternates over a tiny working set: after the first few
// insertions every touch re-finds its chunk and scans the queue, the cost
// sharding divides.
var hitDominated = workload{
	name: "hitdominated",
	run: func(tbl *object.Table, em *trace.Emitter) {
		var gs []object.ID
		for i := 0; i < 8; i++ {
			gs = append(gs, tbl.AddGlobal(fmt.Sprintf("g%d", i), 64))
		}
		for i := 0; i < 4000; i++ {
			em.Load(gs[i%8], 0, 8)
			em.Store(gs[(i*3+1)%8], 8, 8)
		}
	},
}

func runAdaptive(t *testing.T, cfg Config, wl workload, shards int) (*Sharded, *Profile) {
	t.Helper()
	tbl := object.NewTable(1024)
	s, err := NewSharded(cfg, tbl, shards, 8192)
	if err != nil {
		t.Fatal(err)
	}
	em := trace.NewEmitter(tbl, trace.NewEnricher(tbl, s))
	wl.run(tbl, em)
	em.Flush()
	return s, s.Finish()
}

// TestAdaptiveShardSelection pins the heuristic's decisions: a
// miss-dominated stream must fall back to one shard, a hit-dominated
// stream must keep the configured fan-out — and both must reproduce the
// sequential oracle byte for byte.
func TestAdaptiveShardSelection(t *testing.T) {
	cases := []struct {
		wl   workload
		want int // EffectiveShards after the warmup decision
	}{
		{missDominated, 1},
		{hitDominated, 4},
	}
	cfg := smallConfig()
	cfg.AdaptiveWarmup = 1000 // decide well before the streams end
	for _, c := range cases {
		oracle := runSequential(t, cfg, c.wl)
		s, got := runAdaptive(t, cfg, c.wl, 4)
		if s.EffectiveShards() != c.want {
			t.Errorf("%s: EffectiveShards() = %d, want %d", c.wl.name, s.EffectiveShards(), c.want)
		}
		if s.Shards() != 4 {
			t.Errorf("%s: Shards() = %d, want the configured 4", c.wl.name, s.Shards())
		}
		requireEqualProfiles(t, oracle, got, c.wl.name+"/adaptive")
	}
}

// TestAdaptiveForcedParallel: a negative warmup disables the heuristic, so
// even the miss-dominated stream fans out immediately — and stays exact.
func TestAdaptiveForcedParallel(t *testing.T) {
	cfg := smallConfig()
	oracle := runSequential(t, cfg, missDominated)
	cfg.AdaptiveWarmup = -1
	s, got := runAdaptive(t, cfg, missDominated, 4)
	if s.EffectiveShards() != 4 {
		t.Errorf("EffectiveShards() = %d, want 4 with the heuristic disabled", s.EffectiveShards())
	}
	requireEqualProfiles(t, oracle, got, "forced-parallel")
}

// TestAdaptiveShortStream: a stream that ends inside the warmup window
// never fans out; Finish settles the inline state and the result still
// matches the oracle.
func TestAdaptiveShortStream(t *testing.T) {
	short := workload{
		name: "short",
		run: func(tbl *object.Table, em *trace.Emitter) {
			g := tbl.AddGlobal("g", 512)
			for i := 0; i < 100; i++ {
				em.Load(g, int64(i%4)*128, 8)
			}
		},
	}
	cfg := smallConfig() // default warmup window of 4096 touches
	oracle := runSequential(t, cfg, short)
	s, got := runAdaptive(t, cfg, short, 4)
	if s.EffectiveShards() != 1 {
		t.Errorf("EffectiveShards() = %d, want 1 for a stream inside the warmup window", s.EffectiveShards())
	}
	requireEqualProfiles(t, oracle, got, "short-stream")
}

// TestAdaptiveSamplingStaysExact crosses the heuristic with time sampling:
// the sampling decision rides the global reference counter on the delivery
// goroutine and must be oblivious to which schedule the touches take.
func TestAdaptiveSamplingStaysExact(t *testing.T) {
	cfg := smallConfig()
	cfg.SampleWindow = 3
	cfg.SamplePeriod = 10
	cfg.AdaptiveWarmup = 500
	for _, wl := range []workload{missDominated, hitDominated} {
		oracle := runSequential(t, cfg, wl)
		_, got := runAdaptive(t, cfg, wl, 4)
		requireEqualProfiles(t, oracle, got, wl.name+"/sampled-adaptive")
	}
}
