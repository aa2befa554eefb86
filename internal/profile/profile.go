// Package profile implements the profiling stage of CCDP: it consumes the
// reference stream once and produces the paper's two profiles (section 3):
//
//   - the Name profile: one record per placement object (id, reference
//     count, size, lifetime), carried on the TRG nodes; and
//   - the TRGplace graph: weighted edges between (object, chunk) pairs,
//     where a weight estimates the cache misses that would occur if the two
//     chunks shared a cache set.
//
// The TRG is built with a recency queue Q of the most recently accessed
// chunks. When chunk c is referenced and found in Q, the edge (c, x) is
// incremented for every entry x ahead of c, because a reference to x
// occurred between two references to c — if they overlapped in a direct-
// mapped cache, c would have missed. Q is capped at queue-threshold total
// bytes (the paper uses twice the cache size): entries that fall off the
// end would have been evicted by capacity anyway, so no relationship is
// recorded for them.
//
// Placement identity: globals, constants, and the stack map to one node per
// object; heap allocations map to one node per XOR call-stack name, because
// that is the unit the custom allocator can steer.
//
// Two profilers produce identical output: the sequential Profiler here,
// and the sharded parallel profiler in sharded.go that partitions the edge
// scans — the dominant cost — across per-cache-set-group workers.
package profile

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/trg"
)

// Config controls profiling granularity.
type Config struct {
	// ChunkSize is the placement granularity in bytes (paper: 256).
	ChunkSize int64
	// QueueThreshold caps the total bytes of chunks in the recency queue
	// (paper: 2x the target cache size).
	QueueThreshold int64
	// PopularityCutoff is the fraction of total popularity covered by the
	// popular set in phase 0 (paper: 0.99).
	PopularityCutoff float64

	// SampleWindow/SamplePeriod enable time-sampled TRG construction,
	// the cost reduction the paper floats in section 5.2 ("alternative
	// techniques for gathering this information such as time sampling"):
	// out of every SamplePeriod references, only the first SampleWindow
	// feed the recency queue. Reference counts and object metadata are
	// always complete. Both zero = profile everything.
	SampleWindow uint64
	SamplePeriod uint64

	// StreamDepth is the per-worker batch buffer of the sharded profiler's
	// fan-out stream (0 = the default, 8). Trace-file replay raises it: the
	// producer is I/O bound there, so a deeper buffer absorbs decode
	// hiccups without stalling the shard workers. Runtime wiring only — it
	// never affects results and is never serialized.
	StreamDepth int `json:"-"`

	// AdaptiveWarmup is how many recency-queue touches the sharded
	// profiler processes inline while estimating the stream's hit ratio
	// before deciding a shard count (0 = the default, 4096; negative
	// disables the heuristic and fans out immediately). When the warmup
	// window is miss-dominated — constant insert/evict churn, almost no
	// queue hits and therefore almost no edge scans — the per-worker
	// replica-queue bookkeeping outweighs the partitioned scans, and the
	// profiler stays on one inline queue instead. Results are identical
	// either way; only the schedule changes. Runtime wiring only.
	AdaptiveWarmup int `json:"-"`

	// AdaptiveMinHitRatio is the queue hit ratio (hits/touches over the
	// warmup window) below which the sharded profiler falls back to one
	// shard (0 = the default, 0.25). Runtime wiring only.
	AdaptiveMinHitRatio float64 `json:"-"`

	// Metrics receives recency-queue and TRG instrumentation (nil =
	// disabled). It is runtime wiring, not a profiling parameter: it does
	// not affect results and is never serialized.
	Metrics *metrics.Collector `json:"-"`
}

// DefaultConfig returns the paper's parameters for a cache of cacheSize
// bytes.
func DefaultConfig(cacheSize int64) Config {
	return Config{
		ChunkSize:        trg.DefaultChunkSize,
		QueueThreshold:   2 * cacheSize,
		PopularityCutoff: 0.99,
	}
}

// Validate rejects unusable parameters.
func (c Config) Validate() error {
	if c.ChunkSize <= 0 {
		return fmt.Errorf("profile: chunk size %d <= 0", c.ChunkSize)
	}
	if c.QueueThreshold < c.ChunkSize {
		return fmt.Errorf("profile: queue threshold %d < chunk size %d", c.QueueThreshold, c.ChunkSize)
	}
	if c.PopularityCutoff <= 0 || c.PopularityCutoff > 1 {
		return fmt.Errorf("profile: popularity cutoff %g outside (0,1]", c.PopularityCutoff)
	}
	if (c.SampleWindow == 0) != (c.SamplePeriod == 0) {
		return fmt.Errorf("profile: sample window and period must be set together")
	}
	if c.SamplePeriod > 0 && c.SampleWindow > c.SamplePeriod {
		return fmt.Errorf("profile: sample window %d exceeds period %d", c.SampleWindow, c.SamplePeriod)
	}
	return nil
}

// Profile is the output of a profiling run.
type Profile struct {
	Config Config
	Graph  *trg.Graph

	// NodeOf maps object IDs from the profiled run to placement nodes.
	// Because workload runs are deterministic, global/constant/stack IDs
	// are identical across runs; heap objects are re-bound by XOR name.
	NodeOf []trg.NodeID

	// HeapNode maps XOR names to their placement node.
	HeapNode map[uint64]trg.NodeID

	// TotalRefs is the number of loads+stores profiled.
	TotalRefs uint64
}

// SizeEstimate approximates the profile's resident bytes — node arena,
// edge table, ID bindings, and heap-name map — for the sweep engine's
// peak-prep accounting. Overheads (string headers, map buckets) are
// approximated; the estimate is deterministic for a given profile.
func (p *Profile) SizeEstimate() int64 {
	const nodeBytes, edgeBytes, heapEntryBytes = 112, 24, 32
	n := int64(p.Graph.NumNodes())*nodeBytes + int64(p.Graph.NumEdges())*edgeBytes
	n += int64(len(p.NodeOf)) * 4
	n += int64(len(p.HeapNode)) * heapEntryBytes
	return n
}

// Node returns the placement node for object id, or trg.NoNode.
func (p *Profile) Node(id object.ID) trg.NodeID {
	if int(id) >= len(p.NodeOf) {
		return trg.NoNode
	}
	return p.NodeOf[id]
}

// binder is the Name-profile half of a profiling run: it resolves objects
// to placement nodes and maintains node metadata. It is inherently serial
// (node IDs are assigned in first-reference order) and is shared by the
// sequential Profiler and the sharded profiler, both of which run it on
// the record-delivery goroutine.
type binder struct {
	objs  *object.Table
	graph *trg.Graph

	nodeOf   []trg.NodeID
	heapNode map[uint64]trg.NodeID
	allocSeq int
}

func (b *binder) init(objs *object.Table, g *trg.Graph) {
	b.objs = objs
	b.graph = g
	b.heapNode = make(map[uint64]trg.NodeID)
}

// nodeForInfo resolves (creating if needed) the placement node of object id,
// binding it from in — the object's table entry, or the snapshot an
// enriched record carries of it. Objects bind on their first appearance
// and every field binding reads is fixed at table insertion, so a
// snapshot binds exactly as the live entry would.
func (b *binder) nodeForInfo(id object.ID, in *object.Info) trg.NodeID {
	for int(id) >= len(b.nodeOf) {
		b.nodeOf = append(b.nodeOf, trg.NoNode)
	}
	if nd := b.nodeOf[id]; nd != trg.NoNode {
		return nd
	}
	return b.bind(id, in)
}

// bind creates the placement node for object id from its table entry.
func (b *binder) bind(id object.ID, in *object.Info) trg.NodeID {
	var nd trg.NodeID
	if in.Category == object.Heap {
		nd = b.heapNodeFor(in)
	} else {
		nd = b.graph.AddNode(trg.Node{
			Category: in.Category,
			Name:     in.Name,
			Size:     in.Size,
			Addr:     in.NaturalAddr,
		})
	}
	b.nodeOf[id] = nd
	return nd
}

func (b *binder) heapNodeFor(in *object.Info) trg.NodeID {
	if nd, ok := b.heapNode[in.XORName]; ok {
		n := b.graph.Node(nd)
		if in.Size > n.Size {
			n.Size = in.Size
		}
		return nd
	}
	nd := b.graph.AddNode(trg.Node{
		Category:   object.Heap,
		Name:       in.Name,
		Size:       in.Size,
		XORName:    in.XORName,
		AllocOrder: b.allocSeq,
	})
	b.heapNode[in.XORName] = nd
	return nd
}

// noteAllocInfo updates node metadata for an allocation: nonUnique is the
// live-XOR-name collision fact as observed when the Alloc was delivered.
func (b *binder) noteAllocInfo(id object.ID, in *object.Info, nonUnique bool) {
	nd := b.nodeForInfo(id, in)
	n := b.graph.Node(nd)
	n.AllocCount++
	b.allocSeq++
	if nonUnique {
		n.NonUniqueXOR = true
	}
}

// bindStatics creates nodes for declared-but-unreferenced globals and
// constants: they still need placement slots.
func (b *binder) bindStatics() {
	b.objs.ForEach(func(in *object.Info) {
		if in.Category == object.Global || in.Category == object.Constant {
			b.nodeForInfo(in.ID, in)
		}
	})
}

// finishProfile binds the unreferenced statics, computes popularity, and
// assembles the completed profile.
func (b *binder) finishProfile(cfg Config, refs uint64) *Profile {
	b.bindStatics()
	b.graph.Finalize(cfg.PopularityCutoff)
	return &Profile{
		Config:    cfg,
		Graph:     b.graph,
		NodeOf:    b.nodeOf,
		HeapNode:  b.heapNode,
		TotalRefs: refs,
	}
}

// Profiler consumes the enriched record stream and builds a Profile. It
// implements trace.RecHandler.
type Profiler struct {
	cfg Config
	binder

	q    recencyQueue
	scan []trg.ChunkKey // reused scan scratch: the keys ahead of a hit
	refs uint64
}

// New creates a profiler over the given object table.
func New(cfg Config, objs *object.Table) (*Profiler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Profiler{cfg: cfg}
	p.binder.init(objs, trg.NewGraph(cfg.ChunkSize))
	p.graph.SetMetrics(cfg.Metrics)
	p.q.init(cfg.QueueThreshold, cfg.Metrics)
	return p, nil
}

// HandleRecs consumes one batch of enriched records: loads and stores
// count toward their node and feed the recency queue (subject to time
// sampling), a folded run as many times as it has accesses, allocs
// update node metadata, frees are ignored — the heap placement node
// survives for future allocations.
func (p *Profiler) HandleRecs(recs []trace.Rec) {
	period, window := p.cfg.SamplePeriod, p.cfg.SampleWindow
	refs := p.refs
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case trace.Load, trace.Store:
			n := uint64(r.More) + 1
			nd := p.nodeForInfo(r.Obj, r.Info)
			p.graph.Node(nd).Refs += n
			if period == 0 {
				// One touch of the run's span is exact: a chunk two
				// accesses share is re-touched at the queue's head.
				refs += n
				p.touchRange(nd, r.Off, int64(n)*r.Size)
				continue
			}
			for off := r.Off; n > 0; n, off = n-1, off+r.Size {
				// Time sampling: outside the sampling window the TRG
				// queue is left untouched (but metadata stays complete).
				if refs++; refs%period < window {
					p.touchRange(nd, off, r.Size)
				}
			}
		case trace.Alloc:
			p.noteAllocInfo(r.Obj, r.Info, r.NonUnique)
		}
	}
	if refs != p.refs {
		// Queue occupancy is sampled once per batch of references:
		// fine-grained enough to sketch the distribution, far off the
		// per-reference path.
		p.refs = refs
		p.cfg.Metrics.Observe(metrics.HistQueueOccupancy, uint64(p.q.occupancy()))
	}
}

// touchRange feeds every chunk covered by [off, off+size) through the
// recency queue: one reference, or a run's whole span.
func (p *Profiler) touchRange(nd trg.NodeID, off, size int64) {
	if size <= 0 {
		size = 1
	}
	n := p.graph.Node(nd)
	first := off / p.cfg.ChunkSize
	last := (off + size - 1) / p.cfg.ChunkSize
	for c := first; c <= last; c++ {
		clen := p.cfg.ChunkSize
		if rem := n.Size - c*p.cfg.ChunkSize; rem < clen {
			clen = rem
		}
		if clen <= 0 {
			clen = 1
		}
		p.touch(trg.MakeChunkKey(nd, int(c)), clen)
	}
}

// touch is the TRG queue step from section 3.2.
func (p *Profiler) touch(key trg.ChunkKey, size int64) {
	if e := p.q.get(key); e != nil {
		// Record a temporal relationship with every chunk referenced
		// since the last touch of key (the entries ahead of it).
		p.scan = p.q.ahead(e, p.scan[:0])
		p.graph.AddScan(key, p.scan)
		p.q.hit(e, size)
		return
	}
	p.q.insert(key, size)
}

// Finish completes and returns the profile.
func (p *Profiler) Finish() *Profile {
	return p.finishProfile(p.cfg, p.refs)
}
