package heapsim

import (
	"repro/internal/addrspace"
	"repro/internal/placement"
	"repro/internal/rng"
)

// FirstFit is the baseline allocator: one arena, first-fit by address.
type FirstFit struct {
	a  *arena
	st Stats
}

// NewFirstFit returns a first-fit allocator over the heap segment.
func NewFirstFit() *FirstFit {
	return &FirstFit{a: newArena(addrspace.HeapBase, addrspace.HeapBase+binStride)}
}

// Alloc implements Allocator (the xor name is ignored by the baseline).
func (f *FirstFit) Alloc(size int64, _ uint64, now uint64) addrspace.Addr {
	size = roundSize(size)
	f.st.Allocs++
	f.st.BytesCarved += uint64(size)
	return f.a.allocFirstFit(size, now, &f.st)
}

// Free implements Allocator.
func (f *FirstFit) Free(addr addrspace.Addr, size int64, now uint64) {
	f.st.Frees++
	f.a.insertFree(addr, roundSize(size), now)
}

// Stats implements Allocator.
func (f *FirstFit) Stats() Stats { return f.st }

// TemporalFit allocates from the most recently touched fitting free chunk.
type TemporalFit struct {
	a  *arena
	st Stats
}

// NewTemporalFit returns a temporal-fit allocator over the heap segment.
func NewTemporalFit() *TemporalFit {
	return &TemporalFit{a: newArena(addrspace.HeapBase, addrspace.HeapBase+binStride)}
}

// Alloc implements Allocator.
func (t *TemporalFit) Alloc(size int64, _ uint64, now uint64) addrspace.Addr {
	size = roundSize(size)
	t.st.Allocs++
	t.st.BytesCarved += uint64(size)
	return t.a.allocTemporalFit(size, now, &t.st)
}

// Free implements Allocator.
func (t *TemporalFit) Free(addr addrspace.Addr, size int64, now uint64) {
	t.st.Frees++
	t.a.insertFree(addr, roundSize(size), now)
}

// Stats implements Allocator.
func (t *TemporalFit) Stats() Stats { return t.st }

// RandomFit is the allocator half of the paper's random-placement control:
// heap objects are mapped "into memory with arbitrary order" — each
// allocation picks an arbitrary fitting free chunk (at an arbitrary
// position inside it) or extends the arena with an arbitrary gap. It
// destroys the incidental locality that first-fit reuse provides.
type RandomFit struct {
	a    *arena
	r    *rng.Source
	st   Stats
	fits []int // Alloc's candidate scratch, reused across calls
}

// NewRandomFit returns a random-fit allocator seeded deterministically.
func NewRandomFit(seed uint64) *RandomFit {
	return &RandomFit{
		a: newArena(addrspace.HeapBase, addrspace.HeapBase+binStride),
		r: rng.New(seed),
	}
}

// Alloc implements Allocator.
func (rf *RandomFit) Alloc(size int64, _ uint64, now uint64) addrspace.Addr {
	size = roundSize(size)
	rf.st.Allocs++
	rf.st.BytesCarved += uint64(size)
	// Collect candidate blocks that fit.
	fits := rf.fits[:0]
	for i := range rf.a.blocks {
		if rf.a.blocks[i].size >= size {
			fits = append(fits, i)
		}
	}
	rf.fits = fits
	if len(fits) > 0 && rf.r.Float64() < 0.75 {
		i := fits[rf.r.Intn(len(fits))]
		b := rf.a.blocks[i]
		slack := b.size - size
		at := b.start + addrspace.Addr(rf.r.Int63n(slack/Align+1)*Align)
		rf.a.carve(i, at, size, now)
		return at
	}
	rf.st.BrkExtends++
	gap := int64(rf.r.Intn(64)) * Align
	if gap > 0 {
		skipped := rf.a.extend(gap)
		rf.a.insertFree(skipped, gap, now)
	}
	return rf.a.extend(size)
}

// Free implements Allocator.
func (rf *RandomFit) Free(addr addrspace.Addr, size int64, now uint64) {
	rf.st.Frees++
	rf.a.insertFree(addr, roundSize(size), now)
}

// Stats implements Allocator.
func (rf *RandomFit) Stats() Stats { return rf.st }

// Custom is the CCDP customized malloc. Allocation names index the
// placement-produced table; hits select a bin free list and may request a
// preferred starting cache offset. Bin free lists use temporal-fit, as in
// the paper's heap-placement evaluation.
type Custom struct {
	plans      map[uint64]placement.HeapPlan
	cacheBytes int64
	def        *arena
	bins       []*arena
	st         Stats
}

// NewCustom builds the custom allocator from a placement map.
func NewCustom(m *placement.Map) *Custom {
	c := &Custom{
		plans:      m.HeapPlans,
		cacheBytes: m.Period(),
		def:        newArena(addrspace.HeapBase, addrspace.HeapBase+binStride),
	}
	c.bins = make([]*arena, m.NumBins)
	for i := range c.bins {
		// Bin arenas keep the same (cache-aligned) starting offset as
		// the default arena: the placement algorithm cannot see where
		// the heap mass lands, so moving it relative to the natural
		// layout would add unplanned conflicts with the placed stack
		// and globals.
		base := addrspace.HeapBase + addrspace.Addr((i+1)*binStride)
		c.bins[i] = newArena(base, base+binStride)
	}
	return c
}

// Alloc implements Allocator: bin tag selects the free list; a preferred
// cache offset, when present, pins the block's starting cache line.
func (c *Custom) Alloc(size int64, xor uint64, now uint64) addrspace.Addr {
	size = roundSize(size)
	c.st.Allocs++
	c.st.BytesCarved += uint64(size)
	ar := c.def
	plan, ok := c.plans[xor]
	if ok {
		c.st.TableHits++
		if plan.Bin >= 0 && plan.Bin < len(c.bins) {
			ar = c.bins[plan.Bin]
			c.st.BinAllocs++
		}
	}
	var at addrspace.Addr
	if ok && plan.PrefOffset != placement.NoPreference {
		at, _ = ar.allocAtOffset(size, plan.PrefOffset, c.cacheBytes, now, &c.st)
		if int64(uint64(at))%c.cacheBytes == plan.PrefOffset {
			c.st.PrefPlaced++
		}
	} else {
		at = ar.allocTemporalFit(size, now, &c.st)
	}
	return at
}

// Free implements Allocator, returning the block to the arena it came
// from: arena i owns [HeapBase + i·binStride, HeapBase + (i+1)·binStride)
// (the default arena is 0), and extend never grows one past its limit.
func (c *Custom) Free(addr addrspace.Addr, size int64, now uint64) {
	c.st.Frees++
	ar := c.def
	if i := int((addr - addrspace.HeapBase) / binStride); i > 0 {
		ar = c.bins[i-1]
	}
	ar.insertFree(addr, roundSize(size), now)
}

// Stats implements Allocator.
func (c *Custom) Stats() Stats { return c.st }
