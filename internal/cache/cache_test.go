package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/addrspace"
	"repro/internal/object"
)

func mustNew(t *testing.T, cfg Config, classify bool) *Sim {
	t.Helper()
	s, err := New(cfg, classify)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Size: 1000, BlockSize: 32, Assoc: 1}, // size not pow2
		{Size: 8192, BlockSize: 33, Assoc: 1}, // block not pow2
		{Size: 8192, BlockSize: 32, Assoc: 0}, // zero ways
		{Size: 64, BlockSize: 32, Assoc: 4},   // too many ways
		{Size: 8, BlockSize: 1, Assoc: 1},     // ways below 16 bytes
		{Size: 32, BlockSize: 4, Assoc: 4},    // ways below 16 bytes
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v unexpectedly valid", c)
		}
	}
	for _, c := range []Config{
		{Size: 16, BlockSize: 1, Assoc: 1},
		{Size: 64, BlockSize: 2, Assoc: 4},
		{Size: 64, BlockSize: 4, Assoc: 4},
		{Size: 16, BlockSize: 16, Assoc: 1},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("config %+v rejected: %v", c, err)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	if DefaultConfig.Sets() != 256 || DefaultConfig.Lines() != 256 {
		t.Fatalf("8K/32B direct-mapped should have 256 sets/lines, got %d/%d",
			DefaultConfig.Sets(), DefaultConfig.Lines())
	}
	c2 := Config{Size: 8192, BlockSize: 32, Assoc: 2}
	if c2.Sets() != 128 || c2.Lines() != 256 {
		t.Fatalf("2-way: sets %d lines %d", c2.Sets(), c2.Lines())
	}
}

func TestConfigString(t *testing.T) {
	if got := DefaultConfig.String(); got != "8KB/32B direct-mapped" {
		t.Errorf("String() = %q", got)
	}
	c2 := Config{Size: 16384, BlockSize: 64, Assoc: 4}
	if got := c2.String(); got != "16KB/64B 4-way" {
		t.Errorf("String() = %q", got)
	}
}

func TestDirectMappedHitMiss(t *testing.T) {
	s := mustNew(t, DefaultConfig, false)
	a := addrspace.Addr(0x10000)
	s.Access(a, 8, object.Global, 1) // compulsory miss
	s.Access(a, 8, object.Global, 1) // hit
	s.Access(a+8, 8, object.Global, 1)
	st := s.Stats()
	if st.Accesses != 3 || st.Misses != 1 {
		t.Fatalf("accesses %d misses %d, want 3/1", st.Accesses, st.Misses)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	s := mustNew(t, DefaultConfig, false)
	a := addrspace.Addr(0x10000)
	b := a + 8192 // same set, different tag
	for i := 0; i < 10; i++ {
		s.Access(a, 8, object.Global, 1)
		s.Access(b, 8, object.Global, 2)
	}
	st := s.Stats()
	if st.Misses != 20 {
		t.Fatalf("alternating conflict should miss every access: %d/20", st.Misses)
	}
}

func TestTwoWayAbsorbsConflict(t *testing.T) {
	s := mustNew(t, Config{Size: 8192, BlockSize: 32, Assoc: 2}, false)
	a := addrspace.Addr(0x10000)
	b := a + 4096 // same set in a 128-set 2-way cache
	for i := 0; i < 10; i++ {
		s.Access(a, 8, object.Global, 1)
		s.Access(b, 8, object.Global, 2)
	}
	st := s.Stats()
	if st.Misses != 2 {
		t.Fatalf("2-way should hold both blocks: misses %d, want 2", st.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	s := mustNew(t, Config{Size: 8192, BlockSize: 32, Assoc: 2}, false)
	a := addrspace.Addr(0x10000)
	b := a + 4096
	c := a + 8192
	s.Access(a, 8, object.Global, 1) // miss
	s.Access(b, 8, object.Global, 1) // miss
	s.Access(a, 8, object.Global, 1) // hit; makes b the LRU
	s.Access(c, 8, object.Global, 1) // miss, evicts b
	s.Access(a, 8, object.Global, 1) // hit
	s.Access(b, 8, object.Global, 1) // miss (was evicted)
	st := s.Stats()
	if st.Misses != 4 {
		t.Fatalf("misses %d, want 4 (LRU must evict b)", st.Misses)
	}
}

func TestSpanningAccess(t *testing.T) {
	s := mustNew(t, DefaultConfig, false)
	// 8 bytes straddling a 32-byte block boundary: two blocks touched,
	// one access, up to two misses.
	s.Access(addrspace.Addr(0x10000+28), 8, object.Global, 1)
	st := s.Stats()
	if st.Accesses != 1 {
		t.Fatalf("accesses %d, want 1", st.Accesses)
	}
	if st.Misses != 2 {
		t.Fatalf("misses %d, want 2 (both blocks cold)", st.Misses)
	}
}

func TestCategoryAttribution(t *testing.T) {
	s := mustNew(t, DefaultConfig, false)
	s.Access(0x10000, 8, object.Stack, 0)
	s.Access(0x20000, 8, object.Heap, 1)
	s.Access(0x20000, 8, object.Heap, 1)
	st := s.Stats()
	if st.CategoryMisses[object.Stack] != 1 || st.CategoryMisses[object.Heap] != 1 {
		t.Fatalf("category misses %v", st.CategoryMisses)
	}
	if st.CategoryAccesses[object.Heap] != 2 {
		t.Fatalf("heap accesses %d", st.CategoryAccesses[object.Heap])
	}
	// Category rates must sum to the overall rate.
	var sum float64
	for c := 0; c < object.NumCategories; c++ {
		sum += st.CategoryMissRate(object.Category(c))
	}
	if diff := sum - st.MissRate(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("category rates sum %g != overall %g", sum, st.MissRate())
	}
}

func TestPerObjectStats(t *testing.T) {
	s := mustNew(t, DefaultConfig, false)
	s.Access(0x10000, 8, object.Global, 3)
	s.Access(0x10000, 8, object.Global, 3)
	s.Access(0x30000, 8, object.Global, 7)
	refs, misses := s.ObjectStats()
	if refs[3] != 2 || misses[3] != 1 {
		t.Fatalf("object 3: refs %d misses %d", refs[3], misses[3])
	}
	if refs[7] != 1 || misses[7] != 1 {
		t.Fatalf("object 7: refs %d misses %d", refs[7], misses[7])
	}
}

func TestMissClassification(t *testing.T) {
	s := mustNew(t, DefaultConfig, true)
	a := addrspace.Addr(0x10000)
	b := a + 8192

	s.Access(a, 8, object.Global, 1) // compulsory
	s.Access(b, 8, object.Global, 2) // compulsory, evicts a in DM
	s.Access(a, 8, object.Global, 1) // conflict: full-assoc would hold both
	st := s.Stats()
	if st.ClassMisses[Compulsory] != 2 {
		t.Fatalf("compulsory %d, want 2", st.ClassMisses[Compulsory])
	}
	if st.ClassMisses[Conflict] != 1 {
		t.Fatalf("conflict %d, want 1", st.ClassMisses[Conflict])
	}
	if st.ClassMisses[Capacity] != 0 {
		t.Fatalf("capacity %d, want 0", st.ClassMisses[Capacity])
	}
}

func TestCapacityClassification(t *testing.T) {
	s := mustNew(t, DefaultConfig, true)
	// Stream through 16 KB (twice the cache) twice: second pass misses
	// are capacity misses (full-assoc LRU also evicts them).
	for pass := 0; pass < 2; pass++ {
		for off := int64(0); off < 16384; off += 32 {
			s.Access(addrspace.Addr(0x100000)+addrspace.Addr(off), 8, object.Global, 1)
		}
	}
	st := s.Stats()
	if st.ClassMisses[Compulsory] != 512 {
		t.Fatalf("compulsory %d, want 512", st.ClassMisses[Compulsory])
	}
	if st.ClassMisses[Capacity] != 512 {
		t.Fatalf("capacity %d, want 512 (LRU streaming)", st.ClassMisses[Capacity])
	}
}

func TestClassesSumToMisses(t *testing.T) {
	if err := quick.Check(func(seed uint32) bool {
		s, _ := New(Config{Size: 1024, BlockSize: 32, Assoc: 1}, true)
		x := uint64(seed)
		for i := 0; i < 500; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			addr := addrspace.Addr(0x10000 + (x>>33)%4096)
			s.Access(addr, 4, object.Global, 1)
		}
		st := s.Stats()
		var sum uint64
		for _, c := range st.ClassMisses {
			sum += c
		}
		return sum == st.Misses
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlush(t *testing.T) {
	s := mustNew(t, DefaultConfig, false)
	s.Access(0x10000, 8, object.Global, 1)
	s.Access(0x10000, 8, object.Global, 1) // hit
	s.Flush()
	s.Access(0x10000, 8, object.Global, 1) // miss again
	if st := s.Stats(); st.Misses != 2 {
		t.Fatalf("misses %d, want 2 after flush", st.Misses)
	}
}

func TestFlushAssociative(t *testing.T) {
	s := mustNew(t, Config{Size: 8192, BlockSize: 32, Assoc: 4}, false)
	s.Access(0x10000, 8, object.Global, 1)
	s.Flush()
	s.Access(0x10000, 8, object.Global, 1)
	if st := s.Stats(); st.Misses != 2 {
		t.Fatalf("misses %d, want 2 after flush", st.Misses)
	}
}

func TestMissRatePercent(t *testing.T) {
	s := mustNew(t, DefaultConfig, false)
	s.Access(0x10000, 8, object.Global, 1)
	s.Access(0x10000, 8, object.Global, 1)
	s.Access(0x10000, 8, object.Global, 1)
	s.Access(0x10000, 8, object.Global, 1)
	st := s.Stats()
	if got := st.MissRate(); got != 25 {
		t.Fatalf("miss rate %g, want 25", got)
	}
}

func TestZeroSizeAccessCountsOnce(t *testing.T) {
	s := mustNew(t, DefaultConfig, false)
	s.Access(0x10000, 0, object.Global, 1)
	st := s.Stats()
	if st.Accesses != 1 || st.Misses != 1 {
		t.Fatalf("zero-size access: %d/%d", st.Accesses, st.Misses)
	}
}

// refLRU is a deliberately naive LRU cache written independently of the
// simulator: a map from set to its resident block numbers, MRU first. It
// counts misses in total, per category and per object.
type refLRU struct {
	cfg       Config
	sets      map[uint64][]uint64
	misses    uint64
	catMisses [object.NumCategories]uint64
	objMisses map[object.ID]uint64
}

func newRefLRU(cfg Config) *refLRU {
	return &refLRU{cfg: cfg, sets: map[uint64][]uint64{}, objMisses: map[object.ID]uint64{}}
}

func (m *refLRU) access(addr addrspace.Addr, size int64, cat object.Category, obj object.ID) {
	bs := uint64(m.cfg.BlockSize)
	for blk := uint64(addr) / bs; blk <= (uint64(addr)+uint64(size)-1)/bs; blk++ {
		set := blk % uint64(m.cfg.Sets())
		var kept []uint64
		hit := false
		for _, b := range m.sets[set] {
			if b == blk {
				hit = true
			} else {
				kept = append(kept, b)
			}
		}
		if !hit {
			m.misses++
			m.catMisses[cat]++
			m.objMisses[obj]++
			if len(kept) == m.cfg.Assoc {
				kept = kept[:len(kept)-1]
			}
		}
		m.sets[set] = append([]uint64{blk}, kept...)
	}
}

// TestReferenceLRUModel replays one stream through the simulator and the
// naive reference LRU, comparing total, per-category and per-object
// misses after every reference. Attribution off runs the policy-free
// path, attribution on runs touchBlock.
func TestReferenceLRUModel(t *testing.T) {
	refs := localStream(7, 6000)
	for _, block := range []int64{16, 32, 64} {
		var cfgs []Config
		for _, ways := range []int{1, 2, 4, 8} {
			cfgs = append(cfgs, Config{Size: 32 * int64(ways) * block, BlockSize: block, Assoc: ways})
		}
		cfgs = append(cfgs, Config{Size: 16 * block, BlockSize: block, Assoc: 16}) // one set
		for _, cfg := range cfgs {
			for _, attr := range []bool{false, true} {
				s := mustNew(t, cfg, false)
				if attr {
					s.SetAttribution(NewAttribution(cfg, 16))
				}
				m := newRefLRU(cfg)
				for n, rf := range refs {
					obj := object.ID(n % 5)
					cat := object.Category(n % object.NumCategories)
					if rf.write {
						s.Write(rf.addr, rf.size, cat, obj)
					} else {
						s.Access(rf.addr, rf.size, cat, obj)
					}
					m.access(rf.addr, rf.size, cat, obj)
					st := s.Stats()
					_, objMisses := s.ObjectStats()
					if st.Misses != m.misses || st.CategoryMisses != m.catMisses || objMisses[obj] != m.objMisses[obj] {
						t.Fatalf("%v attribution=%v: reference %d (%#x+%d): sim misses %d %v obj %d, model %d %v obj %d",
							cfg, attr, n, uint64(rf.addr), rf.size, st.Misses, st.CategoryMisses, objMisses[obj],
							m.misses, m.catMisses, m.objMisses[obj])
					}
				}
				if m.misses == 0 || m.misses == uint64(len(refs)) {
					t.Fatalf("%v: %d misses in %d references; the stream does not exercise hits and misses", cfg, m.misses, len(refs))
				}
			}
		}
	}
}

// TestTopOfRangeBlocksDoNotAlias: with 1, 2 or 4 B lines a block number
// can reach 2^61 and above, past what a line could hold beside its state
// bits if it kept the set index too. Distinct blocks of one set must stay
// distinct on both paths, and an eviction must report the displaced
// block's full number (the attribution sink finds its owner by it).
func TestTopOfRangeBlocksDoNotAlias(t *testing.T) {
	for _, cfg := range []Config{
		{Size: 16, BlockSize: 1, Assoc: 1},
		{Size: 64, BlockSize: 1, Assoc: 4},
		{Size: 32, BlockSize: 2, Assoc: 2},
		{Size: 16, BlockSize: 4, Assoc: 1},
	} {
		// Every block is set 3 plus a multiple of 2^61, up to the top of
		// the address space.
		var addrs []addrspace.Addr
		maxBlk := ^uint64(0) / uint64(cfg.BlockSize)
		for hi := uint64(0); hi < 8 && hi<<61 <= maxBlk-3; hi++ {
			addrs = append(addrs, addrspace.Addr((3+hi<<61)*uint64(cfg.BlockSize)))
		}
		for _, attr := range []bool{false, true} {
			s := mustNew(t, cfg, false)
			var a *Attribution
			if attr {
				a = NewAttribution(cfg, 16)
				s.SetAttribution(a)
			}
			for i, addr := range addrs {
				if s.Access(addr, 1, object.Global, object.ID(i)) != 1 {
					t.Fatalf("%v attribution=%v: first touch of %#x hit", cfg, attr, uint64(addr))
				}
			}
			for i := len(addrs) - cfg.Assoc; i < len(addrs); i++ {
				if s.Access(addrs[i], 1, object.Global, object.ID(i)) != 0 {
					t.Fatalf("%v attribution=%v: resident block %#x missed", cfg, attr, uint64(addrs[i]))
				}
			}
			if a == nil {
				continue
			}
			// Each fill past the first Assoc evicts the block Assoc fills
			// before it.
			pairs := a.Stats().Pairs
			if want := len(addrs) - cfg.Assoc; len(pairs) != want {
				t.Fatalf("%v: %d conflict pairs, want %d: %+v", cfg, len(pairs), want, pairs)
			}
			for _, p := range pairs {
				if int(p.Evictor)-int(p.Victim) != cfg.Assoc || p.Count != 1 {
					t.Fatalf("%v: conflict pair %+v, want victim evictor-%d once", cfg, p, cfg.Assoc)
				}
			}
		}
	}
}

func TestFullyAssociativeLRUShadowAgreesWithSmallCache(t *testing.T) {
	// A cache with one set and N ways is exactly a fully-associative LRU
	// cache; the shadow used for classification must agree with it.
	cfg := Config{Size: 256, BlockSize: 32, Assoc: 8} // 1 set, 8 ways
	s := mustNew(t, cfg, false)
	sh := newLRUShadow(8)
	var simMisses, shadowMisses uint64
	x := uint64(999)
	for i := 0; i < 5000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := addrspace.Addr(0x50000 + (x>>32)%1024)
		before := s.Stats().Misses
		s.Access(addr, 1, object.Global, 1)
		if s.Stats().Misses > before {
			simMisses++
		}
		if sh.touch(uint64(addr) / 32) {
			shadowMisses++
		}
	}
	if simMisses != shadowMisses {
		t.Fatalf("1-set cache %d misses, shadow %d", simMisses, shadowMisses)
	}
}
