package trg

import "slices"

// Flat adjacency storage for TRGplace. The recency-queue scan in the
// profiler adds one half-edge per (current chunk, queue entry) pair
// through Graph.AddScan, making edge accumulation the hottest operation
// of the whole profiling pass. The generic
// map[ChunkKey]map[ChunkKey]uint64 pays two hashed lookups plus
// map-bucket pointer chasing per bump; this file replaces it with:
//
//   - an open-addressing index (power-of-two capacity, linear probing,
//     multiplicative hashing) from ChunkKey to a dense arena of per-chunk
//     edge lists, and
//   - an inline small-degree fast path: each edge list stores its first
//     few neighbors in fixed arrays and only spills to its own
//     open-addressing table when the chunk's degree grows past them —
//     most chunks never do.
//
// Weights are always positive, so a zero value slot marks an empty table
// cell and no tombstones are needed (edges are never deleted).

// inlineEdges is the per-chunk inline neighbor capacity before an edge
// list spills to an open-addressing table.
const inlineEdges = 4

// hashKey mixes a ChunkKey for table placement: Fibonacci hashing with
// the high half folded down, because the tables index with the low bits
// of the hash and the low bits of the bare product depend only on the low
// bits of the key — for packed node<<24|chunk keys that would cluster
// every same-chunk key into a handful of probe chains.
func hashKey(k ChunkKey) uint64 {
	h := uint64(k) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// edgeList holds the weighted out-edges of one chunk key.
type edgeList struct {
	from ChunkKey

	// Inline storage for the first inlineEdges distinct neighbors.
	ikeys [inlineEdges]ChunkKey
	ivals [inlineEdges]uint64
	inl   int8

	// Spill table, nil until degree exceeds inlineEdges. keys/vals have
	// power-of-two length; vals[i] == 0 marks an empty slot.
	keys []ChunkKey
	vals []uint64
	used int
}

// add accumulates w on the edge to `to` and reports whether the edge was
// newly materialized.
func (e *edgeList) add(to ChunkKey, w uint64) bool {
	for i := 0; i < int(e.inl); i++ {
		if e.ikeys[i] == to {
			e.ivals[i] += w
			return false
		}
	}
	if e.keys == nil {
		if int(e.inl) < inlineEdges {
			e.ikeys[e.inl] = to
			e.ivals[e.inl] = w
			e.inl++
			return true
		}
		e.spill()
	}
	return e.tableAdd(to, w)
}

// spill moves the inline neighbors into a fresh table.
func (e *edgeList) spill() {
	e.keys = make([]ChunkKey, 4*inlineEdges)
	e.vals = make([]uint64, 4*inlineEdges)
	for i := 0; i < int(e.inl); i++ {
		e.tableAdd(e.ikeys[i], e.ivals[i])
	}
	e.inl = 0
}

func (e *edgeList) tableAdd(to ChunkKey, w uint64) bool {
	mask := uint64(len(e.keys) - 1)
	i := hashKey(to) & mask
	for e.vals[i] != 0 {
		if e.keys[i] == to {
			e.vals[i] += w
			return false
		}
		i = (i + 1) & mask
	}
	e.keys[i] = to
	e.vals[i] = w
	e.used++
	if 4*e.used >= 3*len(e.keys) { // resize at 3/4 load
		e.grow()
	}
	return true
}

func (e *edgeList) grow() {
	oldKeys, oldVals := e.keys, e.vals
	e.keys = make([]ChunkKey, 2*len(oldKeys))
	e.vals = make([]uint64, 2*len(oldVals))
	mask := uint64(len(e.keys) - 1)
	for i, v := range oldVals {
		if v == 0 {
			continue
		}
		j := hashKey(oldKeys[i]) & mask
		for e.vals[j] != 0 {
			j = (j + 1) & mask
		}
		e.keys[j] = oldKeys[i]
		e.vals[j] = v
	}
}

// weight returns the edge weight to `to` (0 if absent).
func (e *edgeList) weight(to ChunkKey) uint64 {
	for i := 0; i < int(e.inl); i++ {
		if e.ikeys[i] == to {
			return e.ivals[i]
		}
	}
	if e.keys == nil {
		return 0
	}
	mask := uint64(len(e.keys) - 1)
	i := hashKey(to) & mask
	for e.vals[i] != 0 {
		if e.keys[i] == to {
			return e.vals[i]
		}
		i = (i + 1) & mask
	}
	return 0
}

// degree returns the number of distinct neighbors.
func (e *edgeList) degree() int { return int(e.inl) + e.used }

// forEach calls fn for every out-edge. Iteration order is unspecified
// (consumers that need determinism sort, as they did over the old maps).
func (e *edgeList) forEach(fn func(to ChunkKey, w uint64)) {
	for i := 0; i < int(e.inl); i++ {
		fn(e.ikeys[i], e.ivals[i])
	}
	for i, v := range e.vals {
		if v != 0 {
			fn(e.keys[i], v)
		}
	}
}

// edgeIndex maps ChunkKeys to edge lists stored in a dense arena, in
// first-touch order (which is deterministic, since the event stream is).
type edgeIndex struct {
	keys  []ChunkKey // power-of-two open-addressing index
	slots []int32    // arena index + 1; 0 marks an empty cell
	used  int
	arena []edgeList
}

const minIndexCap = 64

// get returns the arena index of key's edge list, or -1.
func (x *edgeIndex) get(key ChunkKey) int {
	if len(x.keys) == 0 {
		return -1
	}
	mask := uint64(len(x.keys) - 1)
	i := hashKey(key) & mask
	for x.slots[i] != 0 {
		if x.keys[i] == key {
			return int(x.slots[i]) - 1
		}
		i = (i + 1) & mask
	}
	return -1
}

// getOrCreate returns the arena index of key's edge list, appending a
// fresh one on first touch.
func (x *edgeIndex) getOrCreate(key ChunkKey) int {
	if len(x.keys) == 0 {
		x.keys = make([]ChunkKey, minIndexCap)
		x.slots = make([]int32, minIndexCap)
	}
	mask := uint64(len(x.keys) - 1)
	i := hashKey(key) & mask
	for x.slots[i] != 0 {
		if x.keys[i] == key {
			return int(x.slots[i]) - 1
		}
		i = (i + 1) & mask
	}
	x.arena = append(x.arena, edgeList{from: key})
	idx := len(x.arena) - 1
	x.keys[i] = key
	x.slots[i] = int32(idx) + 1
	x.used++
	if 4*x.used >= 3*len(x.keys) {
		x.grow()
	}
	return idx
}

// add accumulates w on the half-edge from→to and reports whether it was
// newly materialized: one index probe plus an inline-array or
// open-addressing accumulate, no nested map machinery.
func (x *edgeIndex) add(from, to ChunkKey, w uint64) bool {
	i := x.getOrCreate(from)
	return x.arena[i].add(to, w)
}

// clone deep-copies the index: its tables, the arena, and every edge
// list's spill table.
func (x *edgeIndex) clone() edgeIndex {
	c := edgeIndex{
		keys:  slices.Clone(x.keys),
		slots: slices.Clone(x.slots),
		used:  x.used,
		arena: slices.Clone(x.arena),
	}
	for i := range c.arena {
		e := &c.arena[i]
		e.keys, e.vals = slices.Clone(e.keys), slices.Clone(e.vals)
	}
	return c
}

func (x *edgeIndex) grow() {
	oldKeys, oldSlots := x.keys, x.slots
	x.keys = make([]ChunkKey, 2*len(oldKeys))
	x.slots = make([]int32, 2*len(oldSlots))
	mask := uint64(len(x.keys) - 1)
	for i, s := range oldSlots {
		if s == 0 {
			continue
		}
		j := hashKey(oldKeys[i]) & mask
		for x.slots[j] != 0 {
			j = (j + 1) & mask
		}
		x.keys[j] = oldKeys[i]
		x.slots[j] = s
	}
}
