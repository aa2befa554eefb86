package trg

import "fmt"

// Member is one object placed inside a compound node at a fixed offset
// (bytes) from the compound's origin. Once a compound has been processed by
// the merge loop, offsets are absolute cache offsets (mod cache size).
type Member struct {
	Node   NodeID
	Offset int64
}

// Compound is a set of objects whose relative cache placement has been
// fixed (paper phase 3). Merging compounds (phase 6) slides one whole
// compound against another to minimise predicted conflict, then freezes the
// combined offsets.
type Compound struct {
	ID      int
	Members []Member
	Placed  bool // true once offsets are cache-absolute
}

// NewCompound creates a singleton compound for node n.
func NewCompound(id int, n NodeID) *Compound {
	return &Compound{ID: id, Members: []Member{{Node: n, Offset: 0}}}
}

// Extent returns the compound's span in bytes: max(offset + member size).
func (c *Compound) Extent(g *Graph) int64 {
	var ext int64
	for _, m := range c.Members {
		if end := m.Offset + g.Node(m.Node).Size; end > ext {
			ext = end
		}
	}
	return ext
}

// Shift adds delta to every member offset, wrapping into [0, modulo) when
// modulo > 0.
func (c *Compound) Shift(delta int64, modulo int64) {
	for i := range c.Members {
		off := c.Members[i].Offset + delta
		if modulo > 0 {
			off %= modulo
			if off < 0 {
				off += modulo
			}
		}
		c.Members[i].Offset = off
	}
}

// Absorb appends the members of other (whose offsets must already be in the
// same coordinate space).
func (c *Compound) Absorb(other *Compound) {
	c.Members = append(c.Members, other.Members...)
}

// String lists the members for diagnostics.
func (c *Compound) String() string {
	return fmt.Sprintf("compound%d{%d members, placed=%v}", c.ID, len(c.Members), c.Placed)
}

// CacheImage is the paper's CACHE structure: one list of (object, chunk)
// pairs per cache line, recording which chunks map to that line under the
// current (tentative) placement.
type CacheImage struct {
	BlockSize int64
	Lines     [][]ChunkKey
}

// NewCacheImage creates an empty image with the given geometry.
func NewCacheImage(numLines int, blockSize int64) *CacheImage {
	return &CacheImage{BlockSize: blockSize, Lines: make([][]ChunkKey, numLines)}
}

// NumLines returns the number of cache lines in the image.
func (ci *CacheImage) NumLines() int { return len(ci.Lines) }

// Clear empties every line, retaining capacity for reuse across merges.
func (ci *CacheImage) Clear() {
	for i := range ci.Lines {
		ci.Lines[i] = ci.Lines[i][:0]
	}
}

// AddChunkAt records that the chunkSize-byte chunk key, whose placement
// starts at byte offset start (already cache-relative), occupies the lines
// it covers. chunkLen is the chunk's actual length (the final chunk of an
// object may be short).
func (ci *CacheImage) AddChunkAt(key ChunkKey, start, chunkLen int64) {
	if chunkLen <= 0 {
		return
	}
	n := int64(len(ci.Lines))
	cacheBytes := n * ci.BlockSize
	start %= cacheBytes
	if start < 0 {
		start += cacheBytes
	}
	firstLine := start / ci.BlockSize
	lastByte := start + chunkLen - 1
	lastLine := lastByte / ci.BlockSize
	if lastLine-firstLine >= n-1 {
		// Chunk covers the whole cache.
		for i := range ci.Lines {
			ci.Lines[i] = append(ci.Lines[i], key)
		}
		return
	}
	for l := firstLine; l <= lastLine; l++ {
		ci.Lines[l%n] = append(ci.Lines[l%n], key)
	}
}

// AddNode places node nd of graph g with its origin at cache-relative byte
// offset start, adding every chunk to the lines it covers.
func (ci *CacheImage) AddNode(g *Graph, nd NodeID, start int64) {
	n := g.Node(nd)
	chunks := n.Chunks(g.ChunkSize)
	for c := 0; c < chunks; c++ {
		clen := g.ChunkSize
		if rem := n.Size - int64(c)*g.ChunkSize; rem < clen {
			clen = rem
		}
		ci.AddChunkAt(MakeChunkKey(nd, c), start+int64(c)*g.ChunkSize, clen)
	}
}

// AddCompound places every member of comp (offsets interpreted as
// cache-relative plus base).
func (ci *CacheImage) AddCompound(g *Graph, comp *Compound, base int64) {
	for _, m := range comp.Members {
		ci.AddNode(g, m.Node, base+m.Offset)
	}
}

// CostAgainst computes the paper's cost_placing_same_block between one of
// ci's lines and one of other's lines: the sum of TRGplace edge weights
// between every chunk pair drawn from the two lists.
func (ci *CacheImage) CostAgainst(g *Graph, line int, other *CacheImage, otherLine int) uint64 {
	var cost uint64
	for _, a := range ci.Lines[line] {
		for _, b := range other.Lines[otherLine] {
			cost += g.Weight(a, b)
		}
	}
	return cost
}

// SelfCost returns the conflict cost already committed inside the image:
// for each line, the pairwise TRGplace weight of co-resident chunks from
// different nodes. Used by tests and diagnostics to verify merges reduce
// predicted conflict.
func (ci *CacheImage) SelfCost(g *Graph) uint64 {
	var cost uint64
	for _, line := range ci.Lines {
		for i := 0; i < len(line); i++ {
			for j := i + 1; j < len(line); j++ {
				if line[i].Node() != line[j].Node() {
					cost += g.Weight(line[i], line[j])
				}
			}
		}
	}
	return cost
}

// Occupancy returns how many lines hold at least one chunk.
func (ci *CacheImage) Occupancy() int {
	n := 0
	for _, l := range ci.Lines {
		if len(l) > 0 {
			n++
		}
	}
	return n
}
