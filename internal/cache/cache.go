// Package cache implements the trace-driven data-cache simulator used to
// evaluate placements.
//
// The paper's default geometry is an 8 KB direct-mapped cache with 32-byte
// blocks; the simulator is parameterised over size, block size, and
// associativity (LRU replacement) to support the multi-configuration study
// of section 5.2. Misses are attributed to the referencing object's
// category — exactly the paper's blame rule — and optionally classified
// into the three Cs (compulsory / capacity / conflict) by running a shadow
// fully-associative LRU cache of equal size.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/addrspace"
	"repro/internal/object"
)

// Config describes one cache geometry and its policies.
type Config struct {
	Size      int64 // total bytes
	BlockSize int64 // bytes per block
	Assoc     int   // ways; 1 = direct mapped

	// Prefetch enables next-block prefetch on a miss: the sequentially
	// following block is brought in alongside the missed one (without
	// counting as an access). The paper's phase 5 argues that packing
	// temporally-related small objects into adjacent blocks lets such
	// prefetches eliminate compulsory misses; this switch measures it.
	Prefetch bool

	// WriteBack enables dirty-block accounting: stores mark blocks
	// dirty, and evicting a dirty block counts one writeback. Miss
	// behaviour is unchanged (write-allocate either way); the counter
	// sizes the write traffic placement decisions induce.
	WriteBack bool

	// VictimEntries adds a small fully-associative victim cache (Jouppi,
	// cited in the paper's introduction as a hardware alternative for
	// absorbing conflict misses): blocks evicted from the main cache
	// land there, and a main-cache miss that hits in the victim buffer
	// is not counted as a miss. Comparing CCDP against a victim cache
	// shows how much of the placement win hardware could buy instead.
	VictimEntries int
}

// DefaultConfig is the paper's 8 KB direct-mapped, 32-byte-line cache.
var DefaultConfig = Config{Size: 8 * 1024, BlockSize: 32, Assoc: 1}

// Validate checks the geometry for consistency. The block size and the
// number of sets must be powers of two (they index address bits); the
// total size need not be — 3-way caches like the 21164's 96 KB S-cache
// are legal. A way must hold at least minWayBytes (see lineValid).
func (c Config) Validate() error {
	if !addrspace.IsPow2(c.BlockSize) {
		return fmt.Errorf("cache: block size %d must be a power of two", c.BlockSize)
	}
	if c.Assoc < 1 {
		return fmt.Errorf("cache: associativity %d < 1", c.Assoc)
	}
	if c.Size < c.BlockSize*int64(c.Assoc) {
		return fmt.Errorf("cache: size %d too small for %d ways of %d-byte blocks", c.Size, c.Assoc, c.BlockSize)
	}
	if sets := c.Size / c.BlockSize / int64(c.Assoc); !addrspace.IsPow2(sets) {
		return fmt.Errorf("cache: %d sets (from size %d) is not a power of two", sets, c.Size)
	}
	if c.Size != int64(c.Sets())*c.BlockSize*int64(c.Assoc) {
		return fmt.Errorf("cache: size %d is not sets*block*assoc", c.Size)
	}
	if c.Size/int64(c.Assoc) < minWayBytes {
		return fmt.Errorf("cache: %d-byte ways are below the %d-byte minimum", c.Size/int64(c.Assoc), minWayBytes)
	}
	return nil
}

// Sets returns the number of cache sets.
func (c Config) Sets() int { return int(c.Size / c.BlockSize / int64(c.Assoc)) }

// Lines returns the number of cache lines (sets x ways).
func (c Config) Lines() int { return int(c.Size / c.BlockSize) }

// String renders the geometry, e.g. "8KB/32B direct-mapped".
func (c Config) String() string {
	kind := "direct-mapped"
	if c.Assoc > 1 {
		kind = fmt.Sprintf("%d-way", c.Assoc)
	}
	return fmt.Sprintf("%dKB/%dB %s", c.Size/1024, c.BlockSize, kind)
}

// Short renders the geometry compactly for dense tables and ledger rows,
// e.g. "8K/32/dm" or "96K/32/3w". Sizes that are not whole kilobytes print
// in bytes ("512B/32/dm").
func (c Config) Short() string {
	size := fmt.Sprintf("%dB", c.Size)
	if c.Size >= 1024 && c.Size%1024 == 0 {
		size = fmt.Sprintf("%dK", c.Size/1024)
	}
	way := "dm"
	if c.Assoc > 1 {
		way = fmt.Sprintf("%dw", c.Assoc)
	}
	return fmt.Sprintf("%s/%d/%s", size, c.BlockSize, way)
}

// MissClass partitions misses per Hill & Smith's three Cs.
type MissClass uint8

// The three miss classes.
const (
	Compulsory MissClass = iota
	Capacity
	Conflict
	NumMissClasses = 3
)

// String returns the class name.
func (m MissClass) String() string {
	switch m {
	case Compulsory:
		return "compulsory"
	case Capacity:
		return "capacity"
	case Conflict:
		return "conflict"
	default:
		return "invalid"
	}
}

// Stats accumulates simulation results.
type Stats struct {
	Config Config

	Accesses uint64
	Misses   uint64

	CategoryAccesses [object.NumCategories]uint64
	CategoryMisses   [object.NumCategories]uint64

	ClassMisses [NumMissClasses]uint64 // populated only with classification on

	Prefetches   uint64 // blocks brought in by next-block prefetch
	PrefetchHits uint64 // misses avoided because a prefetch landed first
	Writebacks   uint64 // dirty blocks evicted (WriteBack policy only)
	VictimHits   uint64 // misses absorbed by the victim cache
}

// MissRate returns overall misses per access as a percentage.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return 100 * float64(s.Misses) / float64(s.Accesses)
}

// CategoryMissRate returns misses blamed on category c per total access,
// as a percentage — the paper's per-object-type miss-rate columns, which
// sum to the overall rate.
func (s *Stats) CategoryMissRate(c object.Category) float64 {
	if s.Accesses == 0 {
		return 0
	}
	return 100 * float64(s.CategoryMisses[c]) / float64(s.Accesses)
}

// Sim is one cache instance processing an address stream.
type Sim struct {
	cfg       Config
	setShift  uint // log2(block size)
	setMask   uint64
	tagShift  uint // log2(sets)
	stats     Stats
	objMisses []uint64 // per-object misses, indexed by object.ID
	objRefs   []uint64 // per-object accesses

	// lines holds Sets*Assoc packed lines, set by set, each set's
	// resident blocks MRU first (see lineValid); direct-mapped is 1-way.
	lines []uint64

	// plain is set when no optional policy is on: no classification,
	// victim cache, prefetch, write-back or attribution. Step then runs
	// the LRU update inline instead of through touchBlock.
	plain bool

	classify   bool
	seenBlocks map[uint64]struct{}
	shadow     *lruShadow

	victim *lruShadow

	// attr is the optional miss-attribution sink; nil (the default) is
	// the disabled mode and costs one nil-check branch per hook.
	attr *Attribution
}

// A line packs a resident block's tag — its block number shifted right
// past the set index, which the line's position already holds — above
// three state bits; an all-zero line is empty. Validate's minWayBytes
// floor keeps every tag, even that of a prefetch one block past the top
// of the address space, within the 61 bits above the state bits, so
// distinct blocks never alias.
const (
	lineValid = 1 << iota
	lineDirty
	linePrefetched
	lineStateBits = iota
	minWayBytes   = 2 << lineStateBits // smallest legal sets x block size
)

// New constructs a simulator; classify enables three-C miss classification
// (it costs a shadow cache and a seen-block set, so benches that only need
// miss rates leave it off).
func New(cfg Config, classify bool) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, classify: classify, lines: make([]uint64, cfg.Lines())}
	s.stats.Config = cfg
	s.setShift = uint(bits.TrailingZeros64(uint64(cfg.BlockSize)))
	s.setMask = uint64(cfg.Sets() - 1)
	s.tagShift = uint(bits.TrailingZeros64(uint64(cfg.Sets())))
	if classify {
		s.seenBlocks = make(map[uint64]struct{})
		s.shadow = newLRUShadow(int(cfg.Size / cfg.BlockSize))
	}
	if cfg.VictimEntries > 0 {
		s.victim = newLRUShadow(cfg.VictimEntries)
	}
	s.setPlain()
	return s, nil
}

// setPlain re-derives whether Step may take the policy-free path.
func (s *Sim) setPlain() {
	s.plain = !s.classify && s.victim == nil && !s.cfg.Prefetch && !s.cfg.WriteBack && s.attr == nil
}

// Config returns the simulated geometry.
func (s *Sim) Config() Config { return s.cfg }

// SetAttribution attaches a miss-attribution sink (nil detaches). The sink
// only observes the simulation: every Stats field is byte-identical with
// attribution on or off.
func (s *Sim) SetAttribution(a *Attribution) {
	s.attr = a
	s.setPlain()
}

// Attribution returns the attached attribution sink (nil when off).
func (s *Sim) Attribution() *Attribution { return s.attr }

// Stats returns a snapshot of accumulated statistics.
func (s *Sim) Stats() Stats { return s.stats }

// ObjectStats returns per-object (refs, misses) counters indexed by ID.
// Slices may be shorter than the object table if trailing objects were
// never referenced. A Step-driven simulator's counters are complete only
// after SetTally.
func (s *Sim) ObjectStats() (refs, misses []uint64) { return s.objRefs, s.objMisses }

// Access simulates one data read of size bytes at addr, blamed on object
// obj of category cat. References spanning block boundaries touch every
// covered block, but count as a single access (and at most one miss per
// block touched). It returns the number of blocks that missed, so a next
// cache level can be driven from it.
func (s *Sim) Access(addr addrspace.Addr, size int64, cat object.Category, obj object.ID) int {
	s.tally(cat, obj)
	return s.Step(addr, size, cat, obj, false)
}

// Write simulates one store (write-allocate). With Config.WriteBack set,
// the touched blocks become dirty and their eventual eviction counts a
// writeback.
func (s *Sim) Write(addr addrspace.Addr, size int64, cat object.Category, obj object.ID) int {
	s.tally(cat, obj)
	return s.Step(addr, size, cat, obj, true)
}

// tally counts one reference: the stream-only half of Access, which no
// geometry changes.
func (s *Sim) tally(cat object.Category, obj object.ID) {
	s.stats.Accesses++
	s.stats.CategoryAccesses[cat]++
	s.growObj(obj)
	s.objRefs[obj]++
}

// Step is the geometry half of Access (write false) and Write (write
// true): it updates the cache contents and counts misses, per category
// and per object, but not the reference itself. A caller that runs many
// geometries over one stream counts the references once and stamps them
// with SetTally before reading Stats or ObjectStats.
func (s *Sim) Step(addr addrspace.Addr, size int64, cat object.Category, obj object.ID, write bool) int {
	if size <= 0 {
		size = 1
	}
	missed := 0
	first := uint64(addr) >> s.setShift
	last := uint64(addr+addrspace.Addr(size)-1) >> s.setShift
	if s.plain {
		for blk := first; blk <= last; blk++ {
			ways, key := s.ways(blk), s.lineKey(blk)
			if ways[0] == key {
				continue
			}
			i := 1
			for i < len(ways) && ways[i] != key {
				i++
			}
			if i == len(ways) {
				missed++
				i-- // the LRU line drops out
			}
			for ; i > 0; i-- {
				ways[i] = ways[i-1]
			}
			ways[0] = key
		}
		if missed > 0 {
			s.countMisses(cat, obj, missed)
		}
		return missed
	}
	dirty := write && s.cfg.WriteBack
	for blk := first; blk <= last; blk++ {
		hit, wasPrefetch, evicted, evictedOK := s.touchBlock(blk, dirty, false)
		s.attr.access(blk)
		if hit {
			if wasPrefetch {
				s.stats.PrefetchHits++
			}
			if s.classify {
				s.shadow.touch(blk)
			}
			continue
		}
		s.attr.fill(blk, obj, evicted, evictedOK)
		victimHit := false
		if s.victim != nil {
			victimHit = s.victim.remove(blk)
			if evictedOK {
				s.victim.touch(evicted)
			}
		}
		if victimHit {
			// A swap with the victim buffer: the reference is served
			// without a refill, so it does not count as a miss.
			s.stats.VictimHits++
		} else {
			missed++
			s.countMisses(cat, obj, 1)
			if s.classify {
				s.stats.ClassMisses[s.classifyMiss(blk)]++
			}
			s.attr.miss(blk)
		}
		if s.cfg.Prefetch {
			// Next-block prefetch rides along with the demand fill.
			if pHit, _, pEvicted, pEvictedOK := s.touchBlock(blk+1, false, true); !pHit {
				s.stats.Prefetches++
				// The prefetched block's fill is charged to the
				// demanding object: it chose the placement that made
				// the block adjacent.
				s.attr.fill(blk+1, obj, pEvicted, pEvictedOK)
			}
		}
	}
	return missed
}

// countMisses charges n misses to cat and obj. Behind Access the tally has
// already sized objMisses; behind a bare Step it grows on demand.
func (s *Sim) countMisses(cat object.Category, obj object.ID, n int) {
	s.stats.Misses += uint64(n)
	s.stats.CategoryMisses[cat] += uint64(n)
	s.objMisses = GrowObjCounts(s.objMisses, obj)
	s.objMisses[obj] += uint64(n)
}

// SetTally stamps the reference counts of a Step-driven simulator:
// accesses and per-category accesses, and the per-object reference
// counts (copied). The per-object miss counters take refs' length, so
// ObjectStats reads exactly as if every reference had gone through
// Access. refs must come from the same stream the steps saw, grown by
// GrowObjCounts from the same pre-size.
func (s *Sim) SetTally(accesses uint64, cats [object.NumCategories]uint64, refs []uint64) {
	s.stats.Accesses = accesses
	s.stats.CategoryAccesses = cats
	s.objRefs = append(make([]uint64, 0, len(refs)), refs...)
	if len(s.objMisses) > len(refs) {
		// Every object that missed was referenced, so refs covers it:
		// only zeros fall off.
		s.objMisses = s.objMisses[:len(refs)]
	} else {
		s.objMisses = growCounts(s.objMisses, len(refs))
	}
}

// PresizeObjects grows the per-object counters to cover IDs [0, n) up
// front, so the hot access path never reallocates them when the caller
// already knows the object-table size. growObj stays as the fallback for
// IDs allocated after the pre-size (e.g. heap objects born mid-replay).
func (s *Sim) PresizeObjects(n int) {
	s.objRefs = growCounts(s.objRefs, n)
	s.objMisses = growCounts(s.objMisses, n)
}

// GrowObjCounts returns per-object counters c long enough to index obj:
// c itself when obj is in range, else c extended to half again past obj.
// It is the growth rule of a Sim's own counters, so a caller tallying
// references for SetTally from the same pre-size matches Access's lengths
// exactly.
func GrowObjCounts(c []uint64, obj object.ID) []uint64 {
	if int(obj) < len(c) {
		return c
	}
	n := int(obj) + 1
	return growCounts(c, n+n/2)
}

func (s *Sim) growObj(obj object.ID) {
	if int(obj) >= len(s.objRefs) {
		s.objRefs = GrowObjCounts(s.objRefs, obj)
		s.objMisses = growCounts(s.objMisses, len(s.objRefs))
	}
}

// growCounts returns c extended with zeros to length n (c itself when it
// is already that long).
func growCounts(c []uint64, n int) []uint64 {
	if n <= len(c) {
		return c
	}
	grown := make([]uint64, n)
	copy(grown, c)
	return grown
}

// ways returns the lines of blk's set, MRU first.
func (s *Sim) ways(blk uint64) []uint64 {
	a := s.cfg.Assoc
	i := int(blk&s.setMask) * a
	return s.lines[i : i+a : i+a]
}

// lineKey is the clean, valid line holding blk.
func (s *Sim) lineKey(blk uint64) uint64 {
	return blk>>s.tagShift<<lineStateBits | lineValid
}

// touchBlock simulates one block reference. dirty marks the block dirty
// (write-back stores); prefetched tags a speculative fill. It returns
// whether the block hit, whether a hit found a block that had arrived via
// prefetch and is being demanded for the first time, and — on a miss that
// displaced a resident block — the evicted block number.
func (s *Sim) touchBlock(blk uint64, dirty, prefetched bool) (hit, wasPrefetch bool, evicted uint64, evictedOK bool) {
	ways, line := s.ways(blk), s.lineKey(blk)
	i := 0
	for i < len(ways) && ways[i]&^(lineDirty|linePrefetched) != line {
		i++
	}
	if hit = i < len(ways); hit {
		line = ways[i]
		wasPrefetch = line&linePrefetched != 0 && !prefetched
		if !prefetched {
			line &^= linePrefetched
		}
	} else {
		i--
		if old := ways[i]; old&lineValid != 0 {
			evicted, evictedOK = old>>lineStateBits<<s.tagShift|blk&s.setMask, true
			if old&lineDirty != 0 {
				s.stats.Writebacks++
			}
		}
		if prefetched {
			line |= linePrefetched
		}
	}
	if dirty {
		line |= lineDirty
	}
	copy(ways[1:i+1], ways[:i])
	ways[0] = line
	return hit, wasPrefetch, evicted, evictedOK
}

// classifyMiss implements the three-C taxonomy: a block never seen before
// is a compulsory miss; otherwise, if a fully-associative LRU cache of the
// same capacity also misses, it is a capacity miss; otherwise conflict.
func (s *Sim) classifyMiss(blk uint64) MissClass {
	if _, seen := s.seenBlocks[blk]; !seen {
		s.seenBlocks[blk] = struct{}{}
		s.shadow.touch(blk)
		return Compulsory
	}
	if s.shadow.touch(blk) {
		return Capacity
	}
	return Conflict
}

// Flush empties the cache contents but keeps statistics, modelling a
// context switch. Dirty blocks are written back.
func (s *Sim) Flush() {
	s.attr.dropOwners()
	for _, line := range s.lines {
		if line&lineDirty != 0 {
			s.stats.Writebacks++
		}
	}
	clear(s.lines)
}

// lruShadow is a fully-associative LRU cache over block numbers, used only
// for capacity/conflict discrimination. O(1) per touch via map + intrusive
// doubly-linked list.
type lruShadow struct {
	capacity int
	nodes    map[uint64]*lruNode
	head     *lruNode // MRU
	tail     *lruNode // LRU
}

type lruNode struct {
	blk        uint64
	prev, next *lruNode
}

func newLRUShadow(capacity int) *lruShadow {
	return &lruShadow{capacity: capacity, nodes: make(map[uint64]*lruNode, capacity+1)}
}

// remove deletes blk if present, reporting whether it was there.
func (l *lruShadow) remove(blk uint64) bool {
	n, ok := l.nodes[blk]
	if !ok {
		return false
	}
	l.unlink(n)
	delete(l.nodes, blk)
	return true
}

// touch accesses blk and returns true if it missed.
func (l *lruShadow) touch(blk uint64) bool {
	if n, ok := l.nodes[blk]; ok {
		l.moveToFront(n)
		return false
	}
	n := &lruNode{blk: blk}
	l.nodes[blk] = n
	l.pushFront(n)
	if len(l.nodes) > l.capacity {
		evict := l.tail
		l.unlink(evict)
		delete(l.nodes, evict.blk)
	}
	return true
}

func (l *lruShadow) pushFront(n *lruNode) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *lruShadow) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *lruShadow) moveToFront(n *lruNode) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}
