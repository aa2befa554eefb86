package profile

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/trg"
)

// Sharded is the parallel profiler: it produces output byte-identical to
// the sequential Profiler while spreading the TRG edge scans — the
// dominant cost of the profiling pass — across per-shard workers.
//
// The shard of a chunk is derived from the placement cache's geometry:
// chunks are binned into "set groups" (the cache holds cacheSize/chunkSize
// chunk-sized frames, and under any frame-aligned placement, chunk c of a
// node occupies frame (node+c) mod setGroups), and set groups fold onto
// workers round-robin. Temporal edges only *matter* between chunks that
// can share a cache set, but the sequential oracle records them between
// any queue-adjacent pair, so exactness is preserved differently — by
// decomposition, not filtering:
//
//   - Every worker replays the entire touch stream through its own replica
//     of the recency queue. Queue state is a deterministic pure function
//     of the touch stream, so all replicas are identical at every step;
//     the bookkeeping is O(1) amortized per touch and cheap.
//   - When a touched chunk is found in the queue, only the worker that
//     owns the chunk's shard performs the O(queue-length) scan of entries
//     ahead of it and accumulates edges into its own trg.Graph arena.
//     The sequential weight of edge (a, b) is exactly (contributions from
//     touches of a) + (contributions from touches of b), and each term is
//     recorded by exactly one worker, so summing the per-shard arenas in
//     Finish reproduces the sequential graph bit for bit.
//
// A filtered design — independent queues that each see only their shard's
// touches, with threshold/numShards byte caps — would be cheaper still but
// is not exact: it drops every cross-shard edge and changes eviction
// timing. The differential tests in sharded_test.go hold Sharded to exact
// equality with the single-queue oracle instead.
//
// Fanning out is not always a win, though: the replicated-queue
// bookkeeping is pure overhead on touches that miss the queue (insert and
// eventually evict, nothing to scan), so a miss-dominated stream pays
// shards× the queue maintenance for scans that almost never happen. The
// profiler therefore starts in a warmup mode that processes the first
// AdaptiveWarmup touches inline while measuring the queue hit ratio, and
// only fans out when hits — and hence scans, the cost parallelism
// actually divides — pull their weight. The decision changes the
// schedule, never the results: warmup touches are retained and replayed
// (queue-only, no scans — their scans already ran inline) into the other
// workers' replicas before the stream starts, so every replica still sees
// the full touch stream and every hit is scanned exactly once.
//
// The serial remainder (object-to-node binding, per-node reference counts,
// sampling decisions, and chunk expansion) runs on the record-delivery
// goroutine; it is O(1) per reference with no queue walks. Record batches
// are expanded into pooled touch buffers and broadcast to the workers
// through an exec.Stream, so the caller's records are never retained and
// the profiling pass pipelines: the workload generates the next batch
// while the workers scan the previous one.
//
// One builder can also serve a family of profiles: configs that differ
// only in QueueThreshold (NewFamily). The workers replay the largest
// threshold's queue, and every smaller threshold's queue rides in it as a
// nested prefix (see nestedQueue), so the stream is decoded, bound and
// queued once. A hit in the large queue is walked once, and the scan goes
// to every threshold whose queue holds the touched chunk: for a smaller
// threshold that does not, the touch was a fresh insert, with no scan.
// Each shard's graph for a smaller threshold shares the largest one's
// until that shard's first such hit, where it is cloned, so thresholds
// whose queues never evict cost no extra edge work at all.
type Sharded struct {
	cfg  Config   // the family's largest threshold: the queue replayed
	cfgs []Config // one per profile, in the caller's order
	top  int      // cfgs index of cfg
	low  []int    // cfgs indices of the nested thresholds, ascending
	binder

	refs      uint64
	shards    int
	setGroups int
	depth     int

	mode        int
	warmLimit   int
	minHitRatio float64
	warmTouches int
	warmHits    int
	held        []*touchBatch

	workers []*shardWorker
	stream  *exec.Stream[*touchBatch]
	pool    chan *touchBatch
}

// Profiler scheduling modes. Warmup measures the hit ratio inline; the
// decision then locks the run into sequential or parallel.
const (
	modeWarmup = iota
	modeSequential
	modeParallel
)

// touch is one recency-queue step: a chunk key, the chunk's byte size for
// queue accounting, and its precomputed owning shard.
type touch struct {
	key   trg.ChunkKey
	size  int64
	shard int32
}

// touchBatch is a pooled, refcounted touch buffer shared read-only by all
// workers; the last worker to finish returns it to the pool.
type touchBatch struct {
	touches []touch
	pending atomic.Int32
	pool    chan *touchBatch
}

func (b *touchBatch) release() {
	select {
	case b.pool <- b:
	default: // pool full; let the GC have it
	}
}

// streamDepth is the default per-worker batch buffer: deep enough to
// pipeline the producer against the workers, shallow enough to bound
// memory. Config.StreamDepth overrides it (trace replay runs deeper).
const streamDepth = 8

// Adaptive-shard heuristic defaults; see the Config fields of the same
// names.
const (
	defaultAdaptiveWarmup      = 4096
	defaultAdaptiveMinHitRatio = 0.25
)

// MaxFamily is the most profiles one builder serves.
const MaxFamily = maxNested + 1

// shardWorker owns one shard: a full replica of the recency queue plus the
// edge arenas for the chunks it owns, one per threshold of the family.
type shardWorker struct {
	shard int32
	q     recencyQueue
	graph *trg.Graph     // the largest threshold's scans
	low   []*trg.Graph   // nested threshold j's scans; nil while it shares graph
	scan  []trg.ChunkKey // reused scan scratch
}

// record adds one hit's scan to the worker's graphs. in is the touched
// entry's nested-queue membership before the touch. Each nested queue
// holds every smaller one's entries, so the thresholds that missed the
// chunk come first, and a graph that shares the largest one's is cloned
// before the scan it must not see.
func (w *shardWorker) record(key trg.ChunkKey, scan []trg.ChunkKey, in uint64) {
	j := 0
	for ; j < len(w.low) && in&(1<<j) == 0; j++ {
		if w.low[j] == nil {
			w.low[j] = w.graph.Clone()
		}
	}
	w.graph.AddScan(key, scan)
	for ; j < len(w.low) && w.low[j] != nil; j++ {
		w.low[j].AddScan(key, scan)
	}
}

func (s *Sharded) process(w *shardWorker, b *touchBatch) {
	for i := range b.touches {
		t := &b.touches[i]
		if e := w.q.get(t.key); e != nil {
			if t.shard == w.shard {
				w.scan = w.q.ahead(e, w.scan[:0])
				w.record(t.key, w.scan, e.in)
			}
			w.q.hit(e, t.size)
		} else {
			w.q.insert(t.key, t.size)
		}
	}
	if w.shard == 0 {
		// Replicas evolve identically, so exactly one observes
		// occupancy, keeping the samples equal to a sequential run's.
		s.observe(&w.q)
	}
	if b.pending.Add(-1) == 0 {
		b.release()
	}
}

// observe samples each profile's queue occupancy, once per batch.
func (s *Sharded) observe(q *recencyQueue) {
	s.cfg.Metrics.Observe(metrics.HistQueueOccupancy, uint64(q.occupancy()))
	for j, i := range s.low {
		s.cfgs[i].Metrics.Observe(metrics.HistQueueOccupancy, uint64(q.lower[j].bytes))
	}
}

// processInline is the warmup/sequential counterpart of process: the
// delivery goroutine runs the batch through worker 0's queue, scanning
// every hit into the arena of the shard that owns the touched chunk (so
// per-shard edge counts do not depend on the schedule), and reports the
// hit count for the adaptive decision.
func (s *Sharded) processInline(b *touchBatch) int {
	w := s.workers[0]
	hits := 0
	for i := range b.touches {
		t := &b.touches[i]
		if e := w.q.get(t.key); e != nil {
			hits++
			w.scan = w.q.ahead(e, w.scan[:0])
			s.workers[t.shard].record(t.key, w.scan, e.in)
			w.q.hit(e, t.size)
		} else {
			w.q.insert(t.key, t.size)
		}
	}
	s.observe(&w.q)
	return hits
}

// catchUp replays a warmup batch into a non-zero worker's queue replica.
// No scans: every warmup hit was already scanned inline, so only the
// queue state needs to advance.
func (w *shardWorker) catchUp(b *touchBatch) {
	for i := range b.touches {
		t := &b.touches[i]
		if e := w.q.get(t.key); e != nil {
			w.q.hit(e, t.size)
		} else {
			w.q.insert(t.key, t.size)
		}
	}
}

// NewSharded creates a parallel profiler over the given object table.
// shards is clamped to [1, setGroups] where setGroups is the number of
// chunk-sized frames in the placement cache (cacheSize/ChunkSize): more
// workers than set groups could never all own work. cacheSize <= 0 derives
// the geometry from the queue threshold (the paper's threshold is twice
// the cache size).
func NewSharded(cfg Config, objs *object.Table, shards int, cacheSize int64) (*Sharded, error) {
	return NewFamily([]Config{cfg}, objs, shards, cacheSize)
}

// NewFamily creates one parallel profiler for a family of at most
// MaxFamily profiles whose configs differ only in QueueThreshold and
// Metrics: FinishAll returns each, byte-identical to a separate build,
// with its counters reported to its own collector. For cacheSize <= 0
// the geometry comes from the largest threshold.
func NewFamily(cfgs []Config, objs *object.Table, shards int, cacheSize int64) (*Sharded, error) {
	if len(cfgs) == 0 || len(cfgs) > MaxFamily {
		return nil, fmt.Errorf("profile: family of %d configs, want 1 to %d", len(cfgs), MaxFamily)
	}
	top := 0
	for i, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		a, b := c, cfgs[0]
		a.QueueThreshold, b.QueueThreshold = 0, 0
		a.Metrics, b.Metrics = nil, nil
		if a != b {
			return nil, fmt.Errorf("profile: family configs differ beyond the queue threshold: %+v vs %+v", a, b)
		}
		if c.QueueThreshold > cfgs[top].QueueThreshold {
			top = i
		}
	}
	cfg := cfgs[top]
	var low []int
	for i := range cfgs {
		if i != top {
			low = append(low, i)
		}
	}
	sort.SliceStable(low, func(a, b int) bool { return cfgs[low[a]].QueueThreshold < cfgs[low[b]].QueueThreshold })
	nested := make([]int64, len(low))
	for j, i := range low {
		nested[j] = cfgs[i].QueueThreshold
	}
	if cacheSize <= 0 {
		cacheSize = cfg.QueueThreshold / 2
	}
	setGroups := int(cacheSize / cfg.ChunkSize)
	if setGroups < 1 {
		setGroups = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > setGroups {
		shards = setGroups
	}
	depth := cfg.StreamDepth
	if depth <= 0 {
		depth = streamDepth
	}

	s := &Sharded{cfg: cfg, cfgs: cfgs, top: top, low: low, shards: shards, setGroups: setGroups, depth: depth}
	s.binder.init(objs, trg.NewGraph(cfg.ChunkSize))
	s.graph.SetMetrics(cfg.Metrics)
	s.pool = make(chan *touchBatch, depth+2)
	s.workers = make([]*shardWorker, shards)
	for i := range s.workers {
		w := &shardWorker{shard: int32(i), graph: trg.NewGraph(cfg.ChunkSize), low: make([]*trg.Graph, len(low))}
		w.q.init(cfg.QueueThreshold, nil)
		w.q.nest(nested)
		s.workers[i] = w
	}
	s.warmLimit = cfg.AdaptiveWarmup
	if s.warmLimit == 0 {
		s.warmLimit = defaultAdaptiveWarmup
	}
	s.minHitRatio = cfg.AdaptiveMinHitRatio
	if s.minHitRatio == 0 {
		s.minHitRatio = defaultAdaptiveMinHitRatio
	}
	switch {
	case shards == 1:
		// One worker: inline processing *is* the sequential oracle; a
		// stream would only add hand-off latency.
		s.mode = modeSequential
	case s.warmLimit < 0:
		s.startParallel()
	default:
		s.mode = modeWarmup
	}
	return s, nil
}

// startParallel brings the idle worker replicas up to date with whatever
// worker 0 processed inline, then opens the fan-out stream.
func (s *Sharded) startParallel() {
	for _, w := range s.workers[1:] {
		for _, b := range s.held {
			w.catchUp(b)
		}
	}
	s.stream = exec.NewStream(s.shards, s.depth, func(wi int, b *touchBatch) {
		s.process(s.workers[wi], b)
	})
	s.mode = modeParallel
}

// decide locks in a schedule once the warmup window closes. Hits are the
// only touches whose cost sharding divides (the O(queue) scans); when they
// are rare the replicated-queue bookkeeping loses to a single inline
// queue, so the run stays sequential.
func (s *Sharded) decide() {
	if float64(s.warmHits) >= s.minHitRatio*float64(s.warmTouches) {
		s.startParallel()
	} else {
		s.mode = modeSequential
	}
	for _, b := range s.held {
		b.release()
	}
	s.held = nil
}

// Shards returns the configured shard count after geometry clamping.
func (s *Sharded) Shards() int { return s.shards }

// EffectiveShards returns the shard count the adaptive heuristic actually
// selected: Shards() once the run fanned out, 1 while it is (or stayed)
// sequential.
func (s *Sharded) EffectiveShards() int {
	if s.mode == modeParallel {
		return s.shards
	}
	return 1
}

// shardOf maps a chunk key to its owning shard via the key's set group.
func (s *Sharded) shardOf(key trg.ChunkKey) int32 {
	sg := (uint64(uint32(key.Node())) + uint64(key.Chunk())) % uint64(s.setGroups)
	return int32(sg % uint64(s.shards))
}

// grab takes a touch buffer from the pool, or allocates one.
func (s *Sharded) grab() *touchBatch {
	select {
	case b := <-s.pool:
		return b
	default:
		return &touchBatch{pool: s.pool}
	}
}

// dispatch routes a filled buffer according to the current mode: inline
// through worker 0 (warmup and sequential), or broadcast to every worker
// (parallel). Empty buffers go straight back to the pool.
func (s *Sharded) dispatch(b *touchBatch) {
	if len(b.touches) == 0 {
		b.release()
		return
	}
	switch s.mode {
	case modeParallel:
		b.pending.Store(int32(s.shards))
		s.stream.Send(b)
	case modeWarmup:
		s.warmHits += s.processInline(b)
		s.warmTouches += len(b.touches)
		s.held = append(s.held, b)
		if s.warmTouches >= s.warmLimit {
			s.decide()
		}
	default: // modeSequential
		s.processInline(b)
		b.release()
	}
}

// appendTouches expands one reference into its chunk touches, mirroring
// the sequential profiler's touchRange.
func (s *Sharded) appendTouches(ts []touch, nd trg.NodeID, off, size int64) []touch {
	if size <= 0 {
		size = 1
	}
	n := s.graph.Node(nd)
	first := off / s.cfg.ChunkSize
	last := (off + size - 1) / s.cfg.ChunkSize
	for c := first; c <= last; c++ {
		clen := s.cfg.ChunkSize
		if rem := n.Size - c*s.cfg.ChunkSize; rem < clen {
			clen = rem
		}
		if clen <= 0 {
			clen = 1
		}
		key := trg.MakeChunkKey(nd, int(c))
		ts = append(ts, touch{key: key, size: clen, shard: s.shardOf(key)})
	}
	return ts
}

// HandleRecs implements trace.RecHandler: the serial prefix (binding,
// reference counts, sampling, chunk expansion) runs on the calling
// goroutine, and the batch's touches are dispatched as one buffer. Allocs
// and frees are pure binder work here — the workers never read node
// state, so no barrier is needed. Batch boundaries only change the
// schedule (including where the adaptive warmup decision lands), never
// the output.
func (s *Sharded) HandleRecs(recs []trace.Rec) {
	// The touch buffer is taken at the first load or store: a batch of
	// one Alloc or Free record, as the emitter delivers them, never
	// visits the buffer pool the workers also use.
	var b *touchBatch
	var ts []touch
	period, window := s.cfg.SamplePeriod, s.cfg.SampleWindow
	refs := s.refs
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case trace.Load, trace.Store:
			n := uint64(r.More) + 1
			nd := s.nodeForInfo(r.Obj, r.Info)
			s.graph.Node(nd).Refs += n
			if b == nil {
				b = s.grab()
				ts = b.touches[:0]
			}
			if period == 0 {
				// One span touch per run, as in Profiler.HandleRecs.
				refs += n
				ts = s.appendTouches(ts, nd, r.Off, int64(n)*r.Size)
				continue
			}
			for off := r.Off; n > 0; n, off = n-1, off+r.Size {
				if refs++; refs%period < window {
					ts = s.appendTouches(ts, nd, off, r.Size)
				}
			}
		case trace.Alloc:
			s.noteAllocInfo(r.Obj, r.Info, r.NonUnique)
		}
	}
	s.refs = refs
	if b != nil {
		b.touches = ts
		s.dispatch(b)
	}
}

// Close drains and stops the shard workers, for a build that will not
// finish: a caller unwinding from an error or a panic. FinishAll closes
// them itself; Close after it is a no-op.
func (s *Sharded) Close() {
	if s.stream != nil {
		s.stream.Close()
		s.stream = nil
	}
}

// Finish completes a single-threshold build: FinishAll's one profile.
func (s *Sharded) Finish() *Profile { return s.FinishAll()[0] }

// FinishAll drains the workers and completes the family's profiles, in
// NewFamily's config order. It must be called exactly once.
func (s *Sharded) FinishAll() []*Profile {
	if s.mode == modeWarmup {
		// The stream ended inside the warmup window: everything already
		// ran inline through worker 0, so there is nothing to fan out.
		for _, b := range s.held {
			b.release()
		}
		s.held = nil
		s.mode = modeSequential
	}
	s.Close()
	s.bindStatics()
	out := make([]*Profile, len(s.cfgs))
	q := &s.workers[0].q
	shards := make([]*trg.Graph, len(s.workers))
	// Nested thresholds copy the shared nodes before the largest
	// threshold's edges merge into them.
	for j, i := range s.low {
		for k, w := range s.workers {
			shards[k] = cmp.Or(w.low[j], w.graph)
		}
		out[i] = s.assemble(s.cfgs[i], s.graph.Clone(), shards, q.lower[j].evicted,
			slices.Clone(s.nodeOf), maps.Clone(s.heapNode))
	}
	for k, w := range s.workers {
		shards[k] = w.graph
	}
	out[s.top] = s.assemble(s.cfg, s.graph, shards, q.evicted, s.nodeOf, s.heapNode)
	return out
}

// assemble completes one profile: it mirrors each shard's half-edges,
// merges the shard arenas into g, which holds the bound nodes, in
// shard-major order, and settles the profile's counters once, so merged
// totals equal a sequential run's.
func (s *Sharded) assemble(cfg Config, g *trg.Graph, shards []*trg.Graph, evicted uint64, nodeOf []trg.NodeID, heapNode map[uint64]trg.NodeID) *Profile {
	mc := cfg.Metrics
	g.SetMetrics(mc)
	for i, sg := range shards {
		sg.Mirror()
		g.Merge(sg)
		if mc != nil {
			mc.AddNamed(fmt.Sprintf("profile.shard%02d.edges", i), uint64(sg.NumEdges()))
		}
	}
	if mc != nil {
		mc.AddNamed("profile.adaptive.effectiveshards", uint64(s.EffectiveShards()))
	}
	mc.Add(metrics.QueueEvictions, evicted)
	mc.Add(metrics.TRGEdges, uint64(g.NumEdges()))
	mc.Add(metrics.TRGWeight, g.TotalWeight())
	g.Finalize(cfg.PopularityCutoff)
	return &Profile{Config: cfg, Graph: g, NodeOf: nodeOf, HeapNode: heapNode, TotalRefs: s.refs}
}
