// Package trg implements the Temporal Relationship Graph structures at the
// heart of CCDP (paper sections 3.2-3.3).
//
// Two graphs exist during placement:
//
//   - TRGplace: weighted edges between (node, chunk) pairs. The weight of
//     edge (a, b) estimates the number of cache misses that would occur if
//     chunks a and b mapped to the same cache set of a direct-mapped cache.
//     Chunks are 256-byte slices of objects, following the procedure-
//     placement result that large objects must be placed at sub-object
//     granularity.
//
//   - TRGselect: edges between compound nodes (groups of already co-placed
//     objects), formed by coalescing TRGplace edges between popular
//     objects. It determines the order in which compound nodes merge.
//
// Graph nodes are *placement identities*, not raw allocations: every global
// and constant variable is its own node, the stack is one node, and heap
// allocations are folded into one node per XOR name (the unit the custom
// allocator can actually steer).
package trg

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/addrspace"
	"repro/internal/metrics"
	"repro/internal/object"
)

// DefaultChunkSize is the paper's 256-byte placement granularity.
const DefaultChunkSize = 256

// NodeID identifies a placement node densely.
type NodeID int32

// NoNode is the sentinel for "no node".
const NoNode NodeID = -1

// ChunkKey packs a (node, chunk) pair into one map key.
type ChunkKey uint64

// MaxChunkIndex is the largest chunk index a ChunkKey can carry: the
// chunk half of the key is 24 bits, so one node spans at most 2^24
// chunks (4 GiB of object at the default 256-byte granularity).
const MaxChunkIndex = 1<<24 - 1

// MakeChunkKey builds the key for chunk index chunk of node n. Chunk
// indices beyond MaxChunkIndex would silently alias distinct chunks of
// the same node, corrupting edge weights, so the chunking path panics
// with a clear message instead.
func MakeChunkKey(n NodeID, chunk int) ChunkKey {
	if uint(chunk) > MaxChunkIndex {
		panic(fmt.Sprintf("trg: chunk index %d of node %d outside [0, %d]: object too large for the 24-bit chunk key (grow ChunkKey or raise the chunk size)",
			chunk, n, MaxChunkIndex))
	}
	return ChunkKey(uint64(uint32(n))<<24 | uint64(uint32(chunk))&0xffffff)
}

// Node returns the node half of the key.
func (k ChunkKey) Node() NodeID { return NodeID(uint64(k) >> 24) }

// Chunk returns the chunk-index half of the key.
func (k ChunkKey) Chunk() int { return int(uint64(k) & 0xffffff) }

// Node is one placement identity in the graph.
type Node struct {
	ID       NodeID
	Category object.Category
	Name     string
	Size     int64 // max size observed (heap names may vary per call)
	Refs     uint64

	// Popularity is the sum of incident TRGplace edge weights, computed
	// by Finalize. Placement phase 0 splits on it.
	Popularity uint64
	Popular    bool

	// Heap-specific bookkeeping.
	XORName      uint64
	NonUniqueXOR bool // multiple instances were live at once during profiling
	AllocCount   uint64
	AllocOrder   int // sequence number of the first allocation (bin locality)

	// Addr is meaningful for constants (their fixed text address) and
	// records the natural address otherwise.
	Addr addrspace.Addr
}

// Chunks returns how many chunkSize-byte chunks the node spans.
func (n *Node) Chunks(chunkSize int64) int {
	if n.Size <= 0 {
		return 1
	}
	return int((n.Size + chunkSize - 1) / chunkSize)
}

// Graph is the TRGplace graph: nodes plus symmetric weighted edges between
// chunk pairs. Adjacency lives in a flat open-addressing index (see
// flat.go) rather than nested Go maps: edge accumulation is the hottest
// operation of the profiling pass. A graph is built either by AddWeight,
// symmetric at every step, or by AddScan, as half-edges that Mirror (or
// Finalize) makes symmetric.
type Graph struct {
	ChunkSize int64
	nodes     []Node
	adj       edgeIndex
	totalW    uint64
	half      bool // adj holds AddScan half-edges that Mirror has not folded
	metrics   *metrics.Collector
}

// NewGraph creates an empty graph with the given chunk granularity (0
// selects DefaultChunkSize).
func NewGraph(chunkSize int64) *Graph {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Graph{ChunkSize: chunkSize}
}

// SetMetrics attaches a collector (nil = disabled) that counts edge
// materializations and accumulated weight.
func (g *Graph) SetMetrics(c *metrics.Collector) { g.metrics = c }

// AddNode appends a node and returns its ID. Callers fill the returned
// pointer's metadata.
func (g *Graph) AddNode(n Node) NodeID {
	id := NodeID(len(g.nodes))
	n.ID = id
	g.nodes = append(g.nodes, n)
	return id
}

// NumNodes returns the number of placement nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Node returns a mutable pointer to node id; it is invalidated by AddNode.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// AddWeight increments the symmetric edge (a, b) by w, storing both
// directions. Self-edges (same node and chunk) are ignored: overlapping an
// object with itself is not a placement decision. It panics on a graph
// holding unmirrored AddScan half-edges, which Mirror would double.
func (g *Graph) AddWeight(a, b ChunkKey, w uint64) {
	if g.half {
		panic("trg: AddWeight on a graph holding unmirrored half-edges (call Mirror first)")
	}
	if a == b || w == 0 {
		return
	}
	if g.adj.add(a, b, w) {
		g.metrics.Add(metrics.TRGEdges, 1)
	}
	g.adj.add(b, a, w)
	g.totalW += w
	g.metrics.Add(metrics.TRGWeight, w)
}

// AddScan records one recency-queue scan (paper section 3.2): chunk a was
// touched again, and every chunk in bs, which must not contain a, was
// referenced since. With one index probe for a, each pair adds 1 to the
// half-edge a→b only, and the pair count adds to the total weight. Until
// Mirror the graph takes only AddScan; AddScan panics on a graph that
// already holds symmetric edges.
func (g *Graph) AddScan(a ChunkKey, bs []ChunkKey) {
	if len(bs) == 0 {
		return
	}
	if !g.half {
		if len(g.adj.arena) != 0 {
			panic("trg: AddScan on a graph holding symmetric edges")
		}
		g.half = true
	}
	i := g.adj.getOrCreate(a)
	e := &g.adj.arena[i]
	for _, b := range bs {
		e.add(b, 1)
	}
	g.totalW += uint64(len(bs))
	g.metrics.Add(metrics.TRGWeight, uint64(len(bs)))
}

// Mirror rebuilds the AddScan half-edges as the symmetric graph in
// O(edges): a→b and b→a both come to hold h(a→b) + h(b→a), the number of
// AddWeight(a, b, 1) calls the pair would have had, and the total weight
// is unchanged. trg.edges counts the undirected edges here. Mirror is
// idempotent and does nothing to a graph built by AddWeight.
func (g *Graph) Mirror() {
	if !g.half {
		return
	}
	g.half = false
	var sym edgeIndex
	for i := range g.adj.arena {
		e := &g.adj.arena[i]
		e.forEach(func(to ChunkKey, w uint64) {
			sym.add(e.from, to, w)
			sym.add(to, e.from, w)
		})
	}
	g.adj = sym
	g.metrics.Add(metrics.TRGEdges, uint64(g.NumEdges()))
}

// Merge folds src's adjacency arena and total weight into g: every
// directed half-edge weight adds, and chunk keys unseen by g extend its
// arena in src's first-touch order — so merging per-shard arenas in a
// fixed shard-major order is fully deterministic. Neither graph may hold
// unmirrored half-edges (Merge panics); mirroring is linear, so merged
// mirrored shards equal the mirror of all their scans. Node metadata and
// metrics are untouched (the sharded profiler keeps nodes on the shared
// graph and accounts for counters once, after the final merge). src must
// be quiescent and is left unmodified.
func (g *Graph) Merge(src *Graph) {
	if src == nil {
		return
	}
	if g.half || src.half {
		panic("trg: Merge with unmirrored half-edges (call Mirror first)")
	}
	for i := range src.adj.arena {
		e := &src.adj.arena[i]
		idx := g.adj.getOrCreate(e.from)
		dst := &g.adj.arena[idx]
		e.forEach(func(to ChunkKey, w uint64) {
			dst.add(to, w)
		})
	}
	g.totalW += src.totalW
}

// Clone returns a deep copy of g: nodes, adjacency (half-edges stay
// half-edges, in the same arena order) and total weight, with the same
// metrics collector. Later adds to either graph leave the other alone.
func (g *Graph) Clone() *Graph {
	c := *g
	c.nodes = slices.Clone(g.nodes)
	c.adj = g.adj.clone()
	return &c
}

// Weight returns the edge weight between chunk pairs a and b (0 if absent).
func (g *Graph) Weight(a, b ChunkKey) uint64 {
	i := g.adj.get(a)
	if i < 0 {
		return 0
	}
	return g.adj.arena[i].weight(b)
}

// Neighbors calls fn for every edge incident to chunk key a.
func (g *Graph) Neighbors(a ChunkKey, fn func(b ChunkKey, w uint64)) {
	if i := g.adj.get(a); i >= 0 {
		g.adj.arena[i].forEach(fn)
	}
}

// TotalWeight returns the sum of all (undirected) edge weights.
func (g *Graph) TotalWeight() uint64 { return g.totalW }

// NumEdges returns the number of undirected chunk-pair edges.
func (g *Graph) NumEdges() int {
	n := 0
	for i := range g.adj.arena {
		n += g.adj.arena[i].degree()
	}
	return n / 2
}

// Finalize mirrors any AddScan half-edges, then computes node popularity
// (the sum of incident TRGplace edge weights) and marks as popular the
// smallest set of nodes accounting for cutoff (e.g. 0.99) of total
// popularity — phase 0 of the placement algorithm. Constants and the stack
// are always processed during placement regardless of the flag, so only
// Global/Heap nodes are marked.
func (g *Graph) Finalize(cutoff float64) {
	g.Mirror()
	for i := range g.nodes {
		g.nodes[i].Popularity = 0
		g.nodes[i].Popular = false
	}
	for i := range g.adj.arena {
		e := &g.adj.arena[i]
		n := &g.nodes[e.from.Node()]
		e.forEach(func(_ ChunkKey, w uint64) {
			n.Popularity += w
		})
	}
	var total uint64
	order := make([]NodeID, 0, len(g.nodes))
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.Category == object.Global || n.Category == object.Heap {
			order = append(order, n.ID)
			total += n.Popularity
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := &g.nodes[order[i]], &g.nodes[order[j]]
		if a.Popularity != b.Popularity {
			return a.Popularity > b.Popularity
		}
		return a.ID < b.ID // deterministic tie-break
	})
	if total == 0 {
		return
	}
	target := uint64(cutoff * float64(total))
	var run uint64
	for _, id := range order {
		if run >= target {
			break
		}
		n := &g.nodes[id]
		if n.Popularity == 0 {
			break
		}
		n.Popular = true
		run += n.Popularity
	}
}

// PopularNodes returns the IDs of popular Global/Heap nodes in descending
// popularity order.
func (g *Graph) PopularNodes() []NodeID {
	var ids []NodeID
	for i := range g.nodes {
		if g.nodes[i].Popular {
			ids = append(ids, g.nodes[i].ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := &g.nodes[ids[i]], &g.nodes[ids[j]]
		if a.Popularity != b.Popularity {
			return a.Popularity > b.Popularity
		}
		return a.ID < b.ID
	})
	return ids
}

// ForEachEdge calls fn once per undirected edge, in deterministic
// (sorted-key) order — the iteration order serialized profiles rely on.
func (g *Graph) ForEachEdge(fn func(a, b ChunkKey, w uint64)) {
	order := make([]int, len(g.adj.arena))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return g.adj.arena[order[i]].from < g.adj.arena[order[j]].from
	})
	var tos []ChunkKey
	for _, i := range order {
		e := &g.adj.arena[i]
		tos = tos[:0]
		e.forEach(func(to ChunkKey, _ uint64) {
			if e.from < to {
				tos = append(tos, to)
			}
		})
		sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
		for _, to := range tos {
			fn(e.from, to, e.weight(to))
		}
	}
}

// NodePair packs an unordered node pair for aggregate weight maps.
type NodePair struct{ A, B NodeID }

// MakeNodePair canonicalises the pair so (a,b) == (b,a).
func MakeNodePair(a, b NodeID) NodePair {
	if a > b {
		a, b = b, a
	}
	return NodePair{A: a, B: b}
}

// NodePairWeights aggregates chunk-level TRGplace weights up to node pairs:
// the total temporal-relationship weight between two placement objects.
// Self pairs (intra-object chunk relationships) are excluded.
func (g *Graph) NodePairWeights() map[NodePair]uint64 {
	out := make(map[NodePair]uint64)
	for i := range g.adj.arena {
		e := &g.adj.arena[i]
		na := e.from.Node()
		e.forEach(func(to ChunkKey, w uint64) {
			if e.from >= to {
				return // adjacency is symmetric; count each edge once
			}
			if nb := to.Node(); nb != na {
				out[MakeNodePair(na, nb)] += w
			}
		})
	}
	return out
}

// String summarises the graph for diagnostics.
func (g *Graph) String() string {
	return fmt.Sprintf("TRG{nodes=%d edges=%d weight=%d chunk=%dB}",
		g.NumNodes(), g.NumEdges(), g.totalW, g.ChunkSize)
}
