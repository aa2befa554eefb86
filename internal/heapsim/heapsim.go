// Package heapsim simulates the dynamic-memory allocators of the paper.
//
// Three allocators are provided:
//
//   - FirstFit — the baseline: one free list over one arena, first-fit by
//     address, as in Grunwald/Zorn/Henderson's measured default.
//   - TemporalFit — the paper's alternative policy: free chunks are chosen
//     most-recently-touched first (a chunk is "touched" when either side of
//     it is allocated or part of it is deallocated).
//   - Custom — the CCDP customized malloc (paper section 3.4): the XOR
//     name of each allocation indexes a lookup table produced by the
//     placement phase; a hit yields an allocation-bin tag (its own free
//     list/arena, so temporally-related names are allocated near each
//     other) and/or a preferred starting cache offset the returned block
//     must map to. Misses fall back to a default free list.
//
// All allocators hand out addresses in the simulated heap segment and are
// fully deterministic.
package heapsim

import (
	"fmt"

	"repro/internal/addrspace"
)

// Align is the allocation granularity; all sizes round up to it.
const Align = 8

// binStride separates bin arenas in the address space.
const binStride = 1 << 24

// Allocator is the interface the simulation driver drives.
type Allocator interface {
	// Alloc returns the base address for a new object. xor is the
	// allocation's XOR call-stack name; now is the reference clock.
	Alloc(size int64, xor uint64, now uint64) addrspace.Addr
	// Free releases the block previously returned for (addr, size).
	Free(addr addrspace.Addr, size int64, now uint64)
	// Stats reports allocator behaviour counters.
	Stats() Stats
}

// Stats counts allocator decisions, used in reports and tests.
type Stats struct {
	Allocs      uint64
	Frees       uint64
	TableHits   uint64 // XOR name found in the custom table
	BinAllocs   uint64 // served from a bin free list
	PrefPlaced  uint64 // start address matched the preferred cache offset
	BrkExtends  uint64 // arena growth events
	BytesCarved uint64 // total bytes handed out
}

// freeBlock is one chunk on a free list.
type freeBlock struct {
	start addrspace.Addr
	size  int64
	touch uint64 // last time this chunk or a neighbour changed
}

func (b freeBlock) end() addrspace.Addr { return b.start + addrspace.Addr(b.size) }

// arena is one contiguous allocation region with its own free list,
// ordered by address.
type arena struct {
	base   addrspace.Addr
	brk    addrspace.Addr
	limit  addrspace.Addr
	blocks []freeBlock // sorted by start
}

func newArena(base addrspace.Addr, limit addrspace.Addr) *arena {
	return &arena{base: base, brk: base, limit: limit}
}

// carve removes [at, at+size) from block index i, splitting as needed, and
// stamps the remainders' touch times. It works in place: no remnant
// deletes the block, one overwrites it, and two shift the tail by one.
func (a *arena) carve(i int, at addrspace.Addr, size int64, now uint64) {
	b := a.blocks[i]
	end := at + addrspace.Addr(size)
	if at < b.start || end > b.end() {
		panic(fmt.Sprintf("heapsim: carve [%#x,+%d) outside block [%#x,+%d)", uint64(at), size, uint64(b.start), b.size))
	}
	head := freeBlock{start: b.start, size: int64(at - b.start), touch: now}
	tail := freeBlock{start: end, size: int64(b.end() - end), touch: now}
	switch {
	case head.size > 0 && tail.size > 0:
		a.blocks = append(a.blocks, freeBlock{})
		copy(a.blocks[i+2:], a.blocks[i+1:])
		a.blocks[i], a.blocks[i+1] = head, tail
	case head.size > 0:
		a.blocks[i] = head
	case tail.size > 0:
		a.blocks[i] = tail
	default:
		a.blocks = append(a.blocks[:i], a.blocks[i+1:]...)
	}
}

// extend grows the arena top and returns the old brk.
func (a *arena) extend(size int64) addrspace.Addr {
	at := a.brk
	if at+addrspace.Addr(size) > a.limit {
		panic(fmt.Sprintf("heapsim: arena at %#x exhausted (brk %#x + %d > limit %#x)",
			uint64(a.base), uint64(a.brk), size, uint64(a.limit)))
	}
	a.brk += addrspace.Addr(size)
	return at
}

// insertFree returns a freed block to the list, coalescing neighbours.
func (a *arena) insertFree(addr addrspace.Addr, size int64, now uint64) {
	// Binary search for insertion point.
	lo, hi := 0, len(a.blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.blocks[mid].start < addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	nb := freeBlock{start: addr, size: size, touch: now}
	// Coalesce with predecessor.
	if lo > 0 && a.blocks[lo-1].end() == addr {
		nb.start = a.blocks[lo-1].start
		nb.size += a.blocks[lo-1].size
		lo--
		a.blocks = append(a.blocks[:lo], a.blocks[lo+1:]...)
	}
	// Coalesce with successor.
	if lo < len(a.blocks) && nb.end() == a.blocks[lo].start {
		nb.size += a.blocks[lo].size
		a.blocks = append(a.blocks[:lo], a.blocks[lo+1:]...)
	}
	a.blocks = append(a.blocks, freeBlock{})
	copy(a.blocks[lo+1:], a.blocks[lo:])
	a.blocks[lo] = nb
	// Neighbouring free blocks are never physically adjacent (they would
	// have coalesced), so this free touches no other chunk — the paper's
	// touch rule is about physical abutment, not list order.
}

// allocFirstFit takes the lowest-addressed fitting block, or extends.
func (a *arena) allocFirstFit(size int64, now uint64, st *Stats) addrspace.Addr {
	for i := range a.blocks {
		if a.blocks[i].size >= size {
			at := a.blocks[i].start
			a.carve(i, at, size, now)
			return at
		}
	}
	st.BrkExtends++
	return a.extend(size)
}

// touchEpoch quantises touch times so that blocks freed close together in
// time compare equal; the tie then falls to the lowest address. Without
// this, pure recency ordering chases the newest free block up the address
// space and smears the live set across far more cache lines and pages than
// the allocations need.
const touchEpochShift = 14

// allocTemporalFit takes the most-recently-touched fitting block
// (epoch-quantised recency, lowest address among ties).
func (a *arena) allocTemporalFit(size int64, now uint64, st *Stats) addrspace.Addr {
	best := -1
	var bestEpoch uint64
	for i := range a.blocks {
		if a.blocks[i].size >= size {
			epoch := a.blocks[i].touch >> touchEpochShift
			if best < 0 || epoch > bestEpoch {
				best = i
				bestEpoch = epoch
			}
			// Equal epochs keep the earlier (lower-address) block.
		}
	}
	if best >= 0 {
		at := a.blocks[best].start
		a.carve(best, at, size, now)
		return at
	}
	st.BrkExtends++
	return a.extend(size)
}

// allocAtOffset finds space whose start maps to cache offset pref (mod
// cacheBytes), preferring the most recently touched candidate block;
// failing that it extends the arena to a matching address, leaving the
// skipped bytes on the free list.
func (a *arena) allocAtOffset(size int64, pref int64, cacheBytes int64, now uint64, st *Stats) (addrspace.Addr, bool) {
	best := -1
	var bestAt addrspace.Addr
	var bestTouch uint64
	for i := range a.blocks {
		b := a.blocks[i]
		delta := (pref - int64(uint64(b.start))%cacheBytes) % cacheBytes
		if delta < 0 {
			delta += cacheBytes
		}
		at := b.start + addrspace.Addr(delta)
		if at+addrspace.Addr(size) > b.end() {
			continue
		}
		if best < 0 || b.touch > bestTouch {
			best = i
			bestAt = at
			bestTouch = b.touch
		}
	}
	if best >= 0 {
		a.carve(best, bestAt, size, now)
		return bestAt, true
	}
	// Extend the brk to the next matching offset.
	delta := (pref - int64(uint64(a.brk))%cacheBytes) % cacheBytes
	if delta < 0 {
		delta += cacheBytes
	}
	if delta > 0 {
		skipped := a.extend(delta)
		a.insertFree(skipped, delta, now)
	}
	st.BrkExtends++
	return a.extend(size), true
}

func roundSize(size int64) int64 {
	if size <= 0 {
		size = 1
	}
	return (size + Align - 1) &^ (Align - 1)
}
