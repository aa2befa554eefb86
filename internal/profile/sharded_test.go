package profile

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/trg"
)

// workload drives a deterministic reference stream. The same function runs
// against the sequential oracle and every sharded configuration, so both
// see byte-for-byte the same table and event sequence.
type workload struct {
	name string
	run  func(tbl *object.Table, em *trace.Emitter)
}

// lcg is a tiny deterministic generator for skewed-but-reproducible
// offsets; math/rand would work too, this keeps the streams self-evident.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 33)
}

var shardWorkloads = []workload{
	{
		// Alternation-heavy traffic over small globals: maximal queue
		// churn, every touch re-finds its key and scans past the others.
		name: "alternation",
		run: func(tbl *object.Table, em *trace.Emitter) {
			var gs []object.ID
			for i := 0; i < 8; i++ {
				gs = append(gs, tbl.AddGlobal(fmt.Sprintf("g%d", i), 64))
			}
			for i := 0; i < 4000; i++ {
				em.Load(gs[i%8], 0, 8)
				em.Store(gs[(i*3+1)%8], 8, 8)
				if i%5 == 0 {
					em.Load(object.StackID, int64(i%512), 8)
				}
			}
		},
	},
	{
		// Large chunk-spanning objects with a skewed access pattern:
		// exercises multi-chunk expansion, partial tail chunks, and
		// cross-set-group edges.
		name: "spanning",
		run: func(tbl *object.Table, em *trace.Emitter) {
			bigA := tbl.AddGlobal("bigA", 4096+40) // 17 chunks, short tail
			bigB := tbl.AddGlobal("bigB", 2048)
			small := tbl.AddGlobal("small", 96)
			var r lcg = 42
			for i := 0; i < 3000; i++ {
				em.Load(bigA, int64(r.next()%3600), int64(16+r.next()%500))
				if i%3 == 0 {
					em.Store(bigB, int64(r.next()%1984), 64)
				}
				if i%2 == 0 {
					em.Load(small, 0, 8)
				}
			}
		},
	},
	{
		// Heap churn: allocs and frees interleaved with loads, multiple
		// XOR names, one name with concurrently-live instances. Allocs
		// flush the emitter ring, so this also exercises the
		// HandleEvent (unbatched) path of both profilers.
		name: "heapchurn",
		run: func(tbl *object.Table, em *trace.Emitter) {
			g := tbl.AddGlobal("anchor", 256)
			var r lcg = 7
			for i := 0; i < 600; i++ {
				xor := uint64(0xBEEF + i%4)
				h := em.Malloc("h", 128+int64(i%3)*256, xor)
				h2 := em.Malloc("h2", 512, 0xF00D) // concurrent with h
				for j := 0; j < 4; j++ {
					em.Load(h, int64(r.next()%120), 8)
					em.Store(h2, int64(r.next()%496), 16)
					em.Load(g, 0, 8)
				}
				em.Free(h)
				em.Free(h2)
			}
		},
	},
}

func runSequential(t *testing.T, cfg Config, wl workload) *Profile {
	t.Helper()
	tbl := object.NewTable(1024)
	p, err := New(cfg, tbl)
	if err != nil {
		t.Fatal(err)
	}
	em := trace.NewEmitter(tbl, trace.NewEnricher(tbl, p))
	wl.run(tbl, em)
	em.Flush()
	return p.Finish()
}

func runSharded(t *testing.T, cfg Config, wl workload, shards int, cacheSize int64) *Profile {
	t.Helper()
	tbl := object.NewTable(1024)
	s, err := NewSharded(cfg, tbl, shards, cacheSize)
	if err != nil {
		t.Fatal(err)
	}
	em := trace.NewEmitter(tbl, trace.NewEnricher(tbl, s))
	wl.run(tbl, em)
	em.Flush()
	return s.Finish()
}

type edgeTriple struct {
	a, b trg.ChunkKey
	w    uint64
}

func edgesOf(g *trg.Graph) []edgeTriple {
	var out []edgeTriple
	g.ForEachEdge(func(a, b trg.ChunkKey, w uint64) {
		out = append(out, edgeTriple{a, b, w})
	})
	return out
}

// requireEqualProfiles asserts got is indistinguishable from want across
// everything the placement stage and the persisted profile can observe:
// reference totals, node tables, object-to-node maps, and the exact edge
// multiset in deterministic iteration order.
func requireEqualProfiles(t *testing.T, want, got *Profile, label string) {
	t.Helper()
	if got.TotalRefs != want.TotalRefs {
		t.Fatalf("%s: TotalRefs %d, want %d", label, got.TotalRefs, want.TotalRefs)
	}
	if gn, wn := got.Graph.NumNodes(), want.Graph.NumNodes(); gn != wn {
		t.Fatalf("%s: %d nodes, want %d", label, gn, wn)
	}
	for id := 0; id < want.Graph.NumNodes(); id++ {
		g, w := *got.Graph.Node(trg.NodeID(id)), *want.Graph.Node(trg.NodeID(id))
		if g != w {
			t.Fatalf("%s: node %d differs:\n got %+v\nwant %+v", label, id, g, w)
		}
	}
	if len(got.NodeOf) != len(want.NodeOf) {
		t.Fatalf("%s: NodeOf length %d, want %d", label, len(got.NodeOf), len(want.NodeOf))
	}
	for i := range want.NodeOf {
		if got.NodeOf[i] != want.NodeOf[i] {
			t.Fatalf("%s: NodeOf[%d] = %d, want %d", label, i, got.NodeOf[i], want.NodeOf[i])
		}
	}
	if len(got.HeapNode) != len(want.HeapNode) {
		t.Fatalf("%s: %d heap names, want %d", label, len(got.HeapNode), len(want.HeapNode))
	}
	for xor, nd := range want.HeapNode {
		if got.HeapNode[xor] != nd {
			t.Fatalf("%s: heap name %#x -> node %d, want %d", label, xor, got.HeapNode[xor], nd)
		}
	}
	if ge, we := got.Graph.NumEdges(), want.Graph.NumEdges(); ge != we {
		t.Fatalf("%s: %d edges, want %d", label, ge, we)
	}
	if gw, ww := got.Graph.TotalWeight(), want.Graph.TotalWeight(); gw != ww {
		t.Fatalf("%s: total weight %d, want %d", label, gw, ww)
	}
	wantEdges, gotEdges := edgesOf(want.Graph), edgesOf(got.Graph)
	for i := range wantEdges {
		if gotEdges[i] != wantEdges[i] {
			t.Fatalf("%s: edge[%d] = {%x,%x,%d}, want {%x,%x,%d}", label, i,
				gotEdges[i].a, gotEdges[i].b, gotEdges[i].w,
				wantEdges[i].a, wantEdges[i].b, wantEdges[i].w)
		}
	}
}

// TestShardedMatchesSequential is the differential oracle of the sharded
// profiler: for every workload pattern, shard count, and queue threshold,
// the parallel result must be exactly — not approximately — the
// single-queue sequential result.
func TestShardedMatchesSequential(t *testing.T) {
	const cacheSize = 8192 // 32 set groups at 256-byte chunks
	for _, wl := range shardWorkloads {
		for _, threshold := range []int64{1024, 16384} {
			cfg := smallConfig()
			cfg.QueueThreshold = threshold
			want := runSequential(t, cfg, wl)
			for _, shards := range []int{1, 2, 4, 8} {
				label := fmt.Sprintf("%s/threshold=%d/shards=%d", wl.name, threshold, shards)
				got := runSharded(t, cfg, wl, shards, cacheSize)
				requireEqualProfiles(t, want, got, label)
			}
		}
	}
}

// TestShardedSamplingMatchesSequential covers time sampling interacting
// with batched delivery and sharding: the sampling decision depends on the
// global reference counter, so it must be insensitive to whether events
// arrive singly, in ring batches, or fanned out to shard workers.
func TestShardedSamplingMatchesSequential(t *testing.T) {
	cfg := smallConfig()
	cfg.SampleWindow = 3
	cfg.SamplePeriod = 10
	for _, wl := range shardWorkloads {
		// Unbatched oracle: HandlerFunc does not implement BatchHandler,
		// so the emitter delivers every event through HandleEvent and the
		// profiler receives one record per batch.
		tbl := object.NewTable(1024)
		p, err := New(cfg, tbl)
		if err != nil {
			t.Fatal(err)
		}
		em := trace.NewEmitter(tbl, trace.HandlerFunc(trace.NewEnricher(tbl, p).HandleEvent))
		wl.run(tbl, em)
		em.Flush()
		unbatched := p.Finish()

		batched := runSequential(t, cfg, wl)
		requireEqualProfiles(t, unbatched, batched, wl.name+"/batched-vs-unbatched")
		for _, shards := range []int{2, 4} {
			got := runSharded(t, cfg, wl, shards, 8192)
			requireEqualProfiles(t, unbatched, got,
				fmt.Sprintf("%s/sampled/shards=%d", wl.name, shards))
		}
		// Sampling must not lose metadata completeness.
		if unbatched.TotalRefs == 0 {
			t.Fatalf("%s: sampled run recorded no references", wl.name)
		}
	}
}

// TestShardedGeometryClamping pins the shard-count derivation: workers
// beyond the number of cache set groups could never own work, and
// degenerate inputs fall back to one shard.
func TestShardedGeometryClamping(t *testing.T) {
	cases := []struct {
		shards    int
		cacheSize int64
		want      int
	}{
		{64, 1024, 4}, // 4 set groups cap 64 requested workers
		{4, 8192, 4},  // fits
		{0, 8192, 1},  // non-positive request clamps up
		{-3, 8192, 1}, //
		{8, 128, 1},   // cache smaller than one chunk: one set group
		{16, 0, 16},   // cacheSize<=0 derives from threshold/2 = 8192...
		{64, -1, 32},  // ...32 set groups, capping at 32
	}
	for _, c := range cases {
		s, err := NewSharded(smallConfig(), object.NewTable(16), c.shards, c.cacheSize)
		if err != nil {
			t.Fatal(err)
		}
		if s.Shards() != c.want {
			t.Errorf("shards=%d cache=%d: got %d workers, want %d",
				c.shards, c.cacheSize, s.Shards(), c.want)
		}
		s.Finish()
	}
}

// TestShardedMetricsParity asserts the instrumentation counters a sharded
// run reports equal a sequential run's — evictions are counted by exactly
// one queue replica, and the TRG totals are settled once at merge time —
// and that the per-shard edge counters and occupancy histogram appear.
func TestShardedMetricsParity(t *testing.T) {
	wl := shardWorkloads[0]
	cfg := smallConfig()
	cfg.QueueThreshold = 1024 // force evictions

	seqCfg := cfg
	seqCfg.Metrics = metrics.New()
	seq := runSequential(t, seqCfg, wl)

	shCfg := cfg
	shCfg.Metrics = metrics.New()
	// Pin the pure-parallel schedule; TestShardEdgeCountersIgnoreSchedule
	// shows the per-shard counters read the same under adaptive warmup.
	shCfg.AdaptiveWarmup = -1
	sh := runSharded(t, shCfg, wl, 4, 8192)
	requireEqualProfiles(t, seq, sh, "metrics-run")

	for _, ctr := range []metrics.Counter{metrics.QueueEvictions, metrics.TRGEdges, metrics.TRGWeight} {
		if g, w := shCfg.Metrics.Get(ctr), seqCfg.Metrics.Get(ctr); g != w {
			t.Errorf("counter %v: sharded %d, sequential %d", ctr, g, w)
		}
	}
	if seqCfg.Metrics.Get(metrics.QueueEvictions) == 0 {
		t.Fatal("workload caused no evictions; threshold too generous for the test")
	}

	var perShard uint64
	for i := 0; i < 4; i++ {
		perShard += shCfg.Metrics.GetNamed(fmt.Sprintf("profile.shard%02d.edges", i))
	}
	// An edge (a,b) can be accumulated by shard(a), shard(b), or both, so
	// the per-shard sum is bounded by [merged, 2*merged] and never zero.
	merged := uint64(sh.Graph.NumEdges())
	if perShard < merged || perShard > 2*merged {
		t.Errorf("per-shard edge counters sum to %d, outside [%d, %d]", perShard, merged, 2*merged)
	}
	snap := shCfg.Metrics.Snapshot()
	if h, ok := snap.Hist(metrics.HistQueueOccupancy.String()); !ok || h.Count == 0 {
		t.Error("queue occupancy histogram missing from sharded snapshot")
	}
	if h, ok := seqCfg.Metrics.Snapshot().Hist(metrics.HistQueueOccupancy.String()); !ok || h.Count == 0 {
		t.Error("queue occupancy histogram missing from sequential snapshot")
	}
}

// TestQueueFreeListNoAllocs pins the free-list recycling of queue entries:
// once the queue has warmed past its threshold, the insert/evict churn must
// reuse entries instead of allocating.
func TestQueueFreeListNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var q recencyQueue
	q.init(1024, nil)
	keys := make([]trg.ChunkKey, 64)
	for i := range keys {
		keys[i] = trg.MakeChunkKey(trg.NodeID(i), 0)
	}
	for _, k := range keys { // warm: fill past threshold, build free list
		q.insert(k, 256)
	}
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		k := keys[i%len(keys)]
		i++
		if e := q.get(k); e != nil {
			q.moveToFront(e)
			return
		}
		q.insert(k, 256) // evicts one, recycles the entry
	})
	if avg != 0 {
		t.Fatalf("queue churn allocates %v per op, want 0", avg)
	}
}

// TestHandleRecsSteadyStateAllocs pins the record touch path: with nodes
// bound and edges materialized, a batch of loads must not allocate.
func TestHandleRecsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tbl := object.NewTable(64)
	p, err := New(smallConfig(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	en := trace.NewEnricher(tbl, nil)
	var recs []trace.Rec
	for i := 0; i < 8; i++ {
		id := tbl.AddGlobal(fmt.Sprintf("g%d", i), 64)
		recs = en.Append(recs, trace.Event{Kind: trace.Load, Obj: id, Off: 0, Size: 8})
	}
	p.HandleRecs(recs) // warm: bind nodes, materialize edges
	p.HandleRecs(recs)
	avg := testing.AllocsPerRun(200, func() { p.HandleRecs(recs) })
	if avg != 0 {
		t.Fatalf("steady-state HandleRecs allocates %v per batch, want 0", avg)
	}
}
