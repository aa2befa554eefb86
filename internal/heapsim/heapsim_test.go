package heapsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/rng"
)

func TestFirstFitReusesLowestBlock(t *testing.T) {
	f := NewFirstFit()
	a := f.Alloc(64, 0, 1)
	b := f.Alloc(64, 0, 2)
	c := f.Alloc(64, 0, 3)
	if b != a+64 || c != b+64 {
		t.Fatalf("fresh allocations not contiguous: %x %x %x", a, b, c)
	}
	f.Free(a, 64, 4)
	f.Free(c, 64, 5)
	// First fit must reuse the lowest-addressed block (a), even though c
	// was freed more recently.
	if got := f.Alloc(64, 0, 6); got != a {
		t.Fatalf("first-fit reused %x, want %x", got, a)
	}
}

func TestTemporalFitPrefersRecentEpochs(t *testing.T) {
	tf := NewTemporalFit()
	a := tf.Alloc(64, 0, 1)
	tf.Alloc(64, 0, 2) // spacer so a and b do not coalesce when freed
	b := tf.Alloc(64, 0, 3)
	tf.Alloc(64, 0, 4) // spacer against the wilderness
	tf.Free(a, 64, 100)
	// Free b much later — a different recency epoch.
	tf.Free(b, 64, 100+(1<<touchEpochShift)*2)
	if got := tf.Alloc(64, 0, 1<<20); got != b {
		t.Fatalf("temporal fit reused %x, want most recent %x", got, b)
	}
}

func TestTemporalFitTiesGoLowAddress(t *testing.T) {
	tf := NewTemporalFit()
	a := tf.Alloc(64, 0, 1)
	tf.Alloc(64, 0, 2) // spacer
	b := tf.Alloc(64, 0, 3)
	tf.Alloc(64, 0, 4) // spacer
	// Free both within the same epoch.
	tf.Free(b, 64, 10)
	tf.Free(a, 64, 12)
	if got := tf.Alloc(64, 0, 20); got != a {
		t.Fatalf("same-epoch tie reused %x, want lower address %x", got, a)
	}
}

func TestFreeCoalesces(t *testing.T) {
	f := NewFirstFit()
	a := f.Alloc(64, 0, 1)
	b := f.Alloc(64, 0, 2)
	c := f.Alloc(64, 0, 3)
	f.Alloc(64, 0, 4) // guard to stop coalescing with the wilderness
	f.Free(a, 64, 5)
	f.Free(c, 64, 6)
	f.Free(b, 64, 7) // joins a and c into one 192-byte block
	if got := f.Alloc(192, 0, 8); got != a {
		t.Fatalf("coalesced alloc at %x, want %x", got, a)
	}
}

func TestAllocationsNeverOverlap(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		f := NewFirstFit()
		type blk struct {
			at   addrspace.Addr
			size int64
		}
		var live []blk
		now := uint64(0)
		for i := 0; i < 300; i++ {
			now++
			if len(live) > 0 && r.Float64() < 0.4 {
				k := r.Intn(len(live))
				f.Free(live[k].at, live[k].size, now)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			size := int64(r.Intn(500) + 1)
			at := f.Alloc(size, 0, now)
			rsize := roundSize(size)
			for _, l := range live {
				if at < l.at+addrspace.Addr(l.size) && l.at < at+addrspace.Addr(rsize) {
					return false
				}
			}
			live = append(live, blk{at: at, size: rsize})
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCustomBinSelection(t *testing.T) {
	m := &placement.Map{
		Cache: cache.DefaultConfig,
		HeapPlans: map[uint64]placement.HeapPlan{
			0xA: {Bin: 0, PrefOffset: placement.NoPreference},
			0xB: {Bin: 1, PrefOffset: placement.NoPreference},
		},
		NumBins: 2,
	}
	c := NewCustom(m)
	a := c.Alloc(64, 0xA, 1)
	b := c.Alloc(64, 0xB, 2)
	d := c.Alloc(64, 0xD, 3) // unknown name -> default arena

	if (uint64(a)-uint64(addrspace.HeapBase))/binStride != 1 {
		t.Fatalf("bin-0 allocation at %x not in bin arena 0", a)
	}
	if (uint64(b)-uint64(addrspace.HeapBase))/binStride != 2 {
		t.Fatalf("bin-1 allocation at %x not in bin arena 1", b)
	}
	if (uint64(d)-uint64(addrspace.HeapBase))/binStride != 0 {
		t.Fatalf("unknown name at %x not in default arena", d)
	}
	st := c.Stats()
	if st.TableHits != 2 || st.BinAllocs != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCustomPreferredOffset(t *testing.T) {
	m := &placement.Map{
		Cache: cache.DefaultConfig,
		HeapPlans: map[uint64]placement.HeapPlan{
			0xC: {Bin: -1, PrefOffset: 4096},
		},
	}
	c := NewCustom(m)
	for i := 0; i < 5; i++ {
		at := c.Alloc(128, 0xC, uint64(i))
		if int64(uint64(at))%8192 != 4096 {
			t.Fatalf("allocation %d at %x: cache offset %d, want 4096",
				i, at, uint64(at)%8192)
		}
	}
	if c.Stats().PrefPlaced != 5 {
		t.Fatalf("PrefPlaced %d, want 5", c.Stats().PrefPlaced)
	}
}

func TestCustomPreferredOffsetReusesFreedSlot(t *testing.T) {
	m := &placement.Map{
		Cache: cache.DefaultConfig,
		HeapPlans: map[uint64]placement.HeapPlan{
			0xC: {Bin: -1, PrefOffset: 2048},
		},
	}
	c := NewCustom(m)
	a := c.Alloc(64, 0xC, 1)
	c.Free(a, 64, 2)
	b := c.Alloc(64, 0xC, 3)
	if a != b {
		t.Fatalf("freed preferred-offset slot not reused: %x then %x", a, b)
	}
}

func TestCustomFreeReturnsToOwningArena(t *testing.T) {
	m := &placement.Map{
		Cache: cache.DefaultConfig,
		HeapPlans: map[uint64]placement.HeapPlan{
			0xA: {Bin: 0, PrefOffset: placement.NoPreference},
		},
		NumBins: 1,
	}
	c := NewCustom(m)
	a := c.Alloc(64, 0xA, 1)
	c.Free(a, 64, 2)
	// Reallocation of the same name must be able to reuse the freed
	// block — which only works if it returned to the bin arena.
	b := c.Alloc(64, 0xA, 3)
	if a != b {
		t.Fatalf("bin-arena free block not reused: %x then %x", a, b)
	}
}

// TestCustomFreeMatchesOwnerMap drives a seeded alloc/free mix across
// the default arena and three bins, with and without preferred offsets,
// through Custom and through a reference whose Free finds each block's
// arena in a map filled at Alloc time. Every address and the final
// Stats must agree: Free's arena-from-address rule loses nothing.
func TestCustomFreeMatchesOwnerMap(t *testing.T) {
	m := &placement.Map{
		Cache: cache.DefaultConfig,
		HeapPlans: map[uint64]placement.HeapPlan{
			1: {Bin: 0, PrefOffset: placement.NoPreference},
			2: {Bin: 1, PrefOffset: 1024},
			3: {Bin: 2, PrefOffset: placement.NoPreference},
			4: {Bin: 2, PrefOffset: 4096},
			5: {Bin: -1, PrefOffset: 2048},
		},
		NumBins: 3,
	}
	got, ref := NewCustom(m), NewCustom(m)
	owner := map[addrspace.Addr]*arena{}
	type block struct {
		at   addrspace.Addr
		size int64
	}
	var live []block
	r := rand.New(rand.NewSource(1))
	for now := uint64(0); now < 4000; now++ {
		if len(live) > 0 && r.Intn(5) < 2 {
			i := r.Intn(len(live))
			b := live[i]
			live = append(live[:i], live[i+1:]...)
			got.Free(b.at, b.size, now)
			ref.st.Frees++
			owner[b.at].insertFree(b.at, roundSize(b.size), now)
			delete(owner, b.at)
			continue
		}
		size, xor := int64(8+r.Intn(600)), uint64(r.Intn(7)) // 0 and 6 have no plan
		at := got.Alloc(size, xor, now)
		if want := ref.Alloc(size, xor, now); at != want {
			t.Fatalf("op %d: alloc(%d, %d) at %#x, reference %#x", now, size, xor, uint64(at), uint64(want))
		}
		owner[at] = ref.def
		if plan, ok := m.HeapPlans[xor]; ok && plan.Bin >= 0 {
			owner[at] = ref.bins[plan.Bin]
		}
		live = append(live, block{at, size})
	}
	if got.Stats() != ref.Stats() {
		t.Fatalf("stats %+v, reference %+v", got.Stats(), ref.Stats())
	}
	if st := got.Stats(); st.BinAllocs == 0 || st.PrefPlaced == 0 || st.Frees == 0 {
		t.Fatalf("mix left a path unexercised: %+v", st)
	}
}

func TestRandomFitDeterministic(t *testing.T) {
	r1, r2 := NewRandomFit(7), NewRandomFit(7)
	for i := 0; i < 100; i++ {
		a := r1.Alloc(64, 0, uint64(i))
		b := r2.Alloc(64, 0, uint64(i))
		if a != b {
			t.Fatalf("random-fit diverges at %d: %x vs %x", i, a, b)
		}
		if i%3 == 0 {
			r1.Free(a, 64, uint64(i))
			r2.Free(b, 64, uint64(i))
		}
	}
}

func TestRandomFitScattersMoreThanFirstFit(t *testing.T) {
	ff, rf := NewFirstFit(), NewRandomFit(3)
	var ffMax, rfMax addrspace.Addr
	for i := 0; i < 200; i++ {
		a := ff.Alloc(64, 0, uint64(i))
		b := rf.Alloc(64, 0, uint64(i))
		ff.Free(a, 64, uint64(i))
		rf.Free(b, 64, uint64(i))
		if a > ffMax {
			ffMax = a
		}
		if b > rfMax {
			rfMax = b
		}
	}
	if rfMax <= ffMax {
		t.Fatalf("random fit (%x) should spread further than first fit (%x)", rfMax, ffMax)
	}
}

func TestRoundSize(t *testing.T) {
	cases := map[int64]int64{0: 8, 1: 8, 8: 8, 9: 16, 63: 64, 64: 64}
	for in, want := range cases {
		if got := roundSize(in); got != want {
			t.Errorf("roundSize(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestStatsBytesCarved(t *testing.T) {
	f := NewFirstFit()
	f.Alloc(100, 0, 1) // rounds to 104
	f.Alloc(8, 0, 2)
	if got := f.Stats().BytesCarved; got != 112 {
		t.Fatalf("bytes carved %d, want 112", got)
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	a := newArena(0, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("arena over-extension did not panic")
		}
	}()
	a.extend(256)
}

func TestSizeClassExactFit(t *testing.T) {
	sc := NewSizeClass()
	a := sc.Alloc(30, 0, 1) // class 32
	b := sc.Alloc(30, 0, 2)
	if b != a+32 {
		t.Fatalf("class-32 allocations not packed: %x then %x", a, b)
	}
	sc.Free(a, 30, 3)
	if c := sc.Alloc(20, 0, 4); c != a {
		t.Fatalf("freed class slot not reused: got %x, want %x", c, a)
	}
}

func TestSizeClassSeparatesClasses(t *testing.T) {
	sc := NewSizeClass()
	small := sc.Alloc(16, 0, 1)
	big := sc.Alloc(2048, 0, 2)
	if (uint64(small)-uint64(addrspace.HeapBase))/binStride == (uint64(big)-uint64(addrspace.HeapBase))/binStride {
		t.Fatal("different size classes share an arena")
	}
}

func TestSizeClassLargeFallback(t *testing.T) {
	sc := NewSizeClass()
	huge := sc.Alloc(100000, 0, 1)
	arena := (uint64(huge) - uint64(addrspace.HeapBase)) / binStride
	if arena != uint64(len(sizeClasses))+1 {
		t.Fatalf("large allocation in arena %d, want the large arena", arena)
	}
	sc.Free(huge, 100000, 2)
	if again := sc.Alloc(100000, 0, 3); again != huge {
		t.Fatalf("large slot not reused: %x vs %x", again, huge)
	}
}

func TestClassIndex(t *testing.T) {
	cases := map[int64]int{8: 0, 16: 0, 17: 1, 32: 1, 4096: 8, 4097: -1}
	for size, want := range cases {
		if got := classIndex(size); got != want {
			t.Errorf("classIndex(%d) = %d, want %d", size, got, want)
		}
	}
}
