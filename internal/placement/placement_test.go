package placement

import (
	"testing"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/object"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/trg"
)

// buildProfile runs script against a fresh emitter/profiler and returns the
// finished profile plus the object table.
func buildProfile(t *testing.T, stackSize int64, script func(tbl *object.Table, em *trace.Emitter)) (*profile.Profile, *object.Table) {
	t.Helper()
	tbl := object.NewTable(stackSize)
	p, err := profile.New(profile.DefaultConfig(8192), tbl)
	if err != nil {
		t.Fatal(err)
	}
	em := trace.NewEmitter(tbl, trace.NewEnricher(tbl, p))
	script(tbl, em)
	em.Flush()
	return p.Finish(), tbl
}

func defaultCfg() Config {
	return Config{Cache: cache.DefaultConfig, HeapPlacement: true, BinAffinityThreshold: 8}
}

// alternate interleaves n rounds of loads over the given objects so every
// pair gains strong TRG edges.
func alternate(em *trace.Emitter, rounds int, objs ...object.ID) {
	for i := 0; i < rounds; i++ {
		for _, o := range objs {
			em.Load(o, 0, 8)
		}
	}
}

func TestConflictingGlobalsSeparated(t *testing.T) {
	prof, _ := buildProfile(t, 1024, func(tbl *object.Table, em *trace.Emitter) {
		a := tbl.AddGlobal("a", 512)
		b := tbl.AddGlobal("b", 512)
		alternate(em, 200, a, b)
	})
	m, err := Compute(defaultCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.GlobalLayout) != 2 {
		t.Fatalf("%d slots, want 2", len(m.GlobalLayout))
	}
	// The two hot globals must not overlap in the cache.
	offs := make([]int64, 2)
	sizes := make([]int64, 2)
	for i, slot := range m.GlobalLayout {
		offs[i] = slot.Offset % 8192
		sizes[i] = slot.Size
	}
	overlap := offs[0] < offs[1]+sizes[1] && offs[1] < offs[0]+sizes[0]
	if overlap {
		t.Fatalf("hot globals overlap in cache: offsets %v sizes %v", offs, sizes)
	}
	if m.PredictedConflict != 0 {
		t.Fatalf("predicted conflict %d, want 0 (plenty of cache room)", m.PredictedConflict)
	}
}

func TestGlobalsAvoidStack(t *testing.T) {
	prof, _ := buildProfile(t, 2048, func(tbl *object.Table, em *trace.Emitter) {
		g := tbl.AddGlobal("hot", 1024)
		for i := 0; i < 300; i++ {
			em.Load(object.StackID, int64(i%256)*8, 8)
			em.Load(g, int64(i%128)*8, 8)
		}
	})
	m, err := Compute(defaultCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	stackOff := int64(uint64(m.StackStart)) % 8192
	slot := m.GlobalLayout[0]
	gOff := slot.Offset % 8192
	// Ranges [stackOff, +2048) and [gOff, +1024) must not overlap mod 8192.
	overlaps := func(a, as, b, bs int64) bool {
		// compare with wraparound by checking all shifts of one period
		for k := int64(-1); k <= 1; k++ {
			ao := a + k*8192
			if ao < b+bs && b < ao+as {
				return true
			}
		}
		return false
	}
	if overlaps(stackOff, 2048, gOff, 1024) {
		t.Fatalf("hot global (off %d) overlaps stack (off %d)", gOff, stackOff)
	}
}

func TestStackAvoidsHotConstant(t *testing.T) {
	prof, _ := buildProfile(t, 1024, func(tbl *object.Table, em *trace.Emitter) {
		// A constant whose cache lines the stack must dodge.
		c := tbl.AddConstant("tbl", 2048, addrspace.TextBase)
		for i := 0; i < 300; i++ {
			em.Load(object.StackID, int64(i%128)*8, 8)
			em.Load(c, int64(i%256)*8, 8)
		}
	})
	m, err := Compute(defaultCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	constOff := int64(uint64(addrspace.TextBase)) % 8192 // 0
	stackOff := int64(uint64(m.StackStart)) % 8192
	if stackOff < constOff+2048 && constOff < stackOff+1024 {
		t.Fatalf("stack (off %d) overlaps hot constant (off %d..%d)",
			stackOff, constOff, constOff+2048)
	}
}

func TestAllGlobalsPlacedExactlyOnce(t *testing.T) {
	prof, _ := buildProfile(t, 1024, func(tbl *object.Table, em *trace.Emitter) {
		var ids []object.ID
		for i := 0; i < 20; i++ {
			ids = append(ids, tbl.AddGlobal("g", int64(16+i*24)))
		}
		// Touch half of them; the rest stay unpopular but still need slots.
		alternate(em, 50, ids[0], ids[2], ids[4], ids[6], ids[8])
	})
	m, err := Compute(defaultCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.GlobalLayout) != 20 {
		t.Fatalf("%d slots, want 20 (every global gets a slot)", len(m.GlobalLayout))
	}
	seen := make(map[trg.NodeID]bool)
	for _, slot := range m.GlobalLayout {
		if seen[slot.Node] {
			t.Fatalf("node %d placed twice", slot.Node)
		}
		seen[slot.Node] = true
	}
}

func TestGlobalSlotsDoNotOverlap(t *testing.T) {
	prof, _ := buildProfile(t, 1024, func(tbl *object.Table, em *trace.Emitter) {
		var ids []object.ID
		for i := 0; i < 12; i++ {
			ids = append(ids, tbl.AddGlobal("g", int64(100+i*64)))
		}
		alternate(em, 120, ids[:6]...)
		alternate(em, 20, ids[6:]...)
	})
	m, err := Compute(defaultCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range m.GlobalLayout {
		for j, b := range m.GlobalLayout {
			if i >= j {
				continue
			}
			if a.Offset < b.Offset+b.Size && b.Offset < a.Offset+a.Size {
				t.Fatalf("slots %d and %d overlap: %+v %+v", i, j, a, b)
			}
		}
	}
}

func TestPopularGlobalsLandOnPreferredOffsets(t *testing.T) {
	prof, _ := buildProfile(t, 1024, func(tbl *object.Table, em *trace.Emitter) {
		a := tbl.AddGlobal("a", 300)
		b := tbl.AddGlobal("b", 300)
		c := tbl.AddGlobal("c", 300)
		alternate(em, 150, a, b, c)
	})
	m, err := Compute(defaultCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range m.GlobalLayout {
		pref, ok := m.PreferredOffset[slot.Node]
		if !ok {
			continue
		}
		if got := slot.Offset % 8192; got != pref {
			t.Fatalf("node %d placed at cache offset %d, preferred %d", slot.Node, got, pref)
		}
	}
}

func TestSmallGlobalsShareLine(t *testing.T) {
	prof, _ := buildProfile(t, 1024, func(tbl *object.Table, em *trace.Emitter) {
		a := tbl.AddGlobal("a", 8)
		b := tbl.AddGlobal("b", 8)
		alternate(em, 300, a, b)
	})
	m, err := Compute(defaultCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 5 packs the two hot 8-byte globals into one cache line.
	offs := []int64{m.GlobalLayout[0].Offset, m.GlobalLayout[1].Offset}
	if offs[0]/32 != offs[1]/32 {
		t.Fatalf("hot small globals in different lines: offsets %v", offs)
	}
}

func TestHeapBinsGroupRelatedNames(t *testing.T) {
	prof, _ := buildProfile(t, 1024, func(tbl *object.Table, em *trace.Emitter) {
		// Two interleaved allocation sites (related), one isolated.
		for i := 0; i < 60; i++ {
			h1 := em.Malloc("a", 64, 0xA)
			h2 := em.Malloc("b", 64, 0xB)
			em.Load(h1, 0, 8)
			em.Load(h2, 0, 8)
			em.Load(h1, 8, 8)
			em.Free(h1)
			em.Free(h2)
		}
		for i := 0; i < 60; i++ {
			h := em.Malloc("c", 64, 0xC)
			em.Load(h, 0, 8)
			em.Free(h)
		}
	})
	m, err := Compute(defaultCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	pa, ok1 := m.HeapPlans[0xA]
	pb, ok2 := m.HeapPlans[0xB]
	pc, ok3 := m.HeapPlans[0xC]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing heap plans: %v %v %v", ok1, ok2, ok3)
	}
	if pa.Bin != pb.Bin {
		t.Fatalf("interleaved names in different bins: %d vs %d", pa.Bin, pb.Bin)
	}
	if pc.Bin == pa.Bin {
		t.Fatalf("unrelated name shares bin %d", pc.Bin)
	}
	if m.NumBins < 2 {
		t.Fatalf("NumBins %d, want >= 2", m.NumBins)
	}
}

func TestHeapPlacementDisabled(t *testing.T) {
	prof, _ := buildProfile(t, 1024, func(tbl *object.Table, em *trace.Emitter) {
		h := em.Malloc("h", 64, 0xA)
		em.Load(h, 0, 8)
	})
	cfg := defaultCfg()
	cfg.HeapPlacement = false
	m, err := Compute(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.HeapPlans) != 0 || m.NumBins != 0 {
		t.Fatalf("heap plans emitted with placement off: %d plans, %d bins",
			len(m.HeapPlans), m.NumBins)
	}
}

func TestUniqueXORHeapGetsPreferredOffset(t *testing.T) {
	prof, _ := buildProfile(t, 1024, func(tbl *object.Table, em *trace.Emitter) {
		g := tbl.AddGlobal("g", 256)
		// One long-lived, uniquely-named heap object, hot against g.
		h := em.Malloc("h", 256, 0xE)
		for i := 0; i < 300; i++ {
			em.Load(h, int64(i%32)*8, 8)
			em.Load(g, int64(i%32)*8, 8)
		}
	})
	m, err := Compute(defaultCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	plan, ok := m.HeapPlans[0xE]
	if !ok {
		t.Fatal("unique hot heap name has no plan")
	}
	if plan.PrefOffset == NoPreference {
		t.Fatal("unique hot heap name should receive a preferred offset")
	}
	// It must not overlap the hot global's placement.
	gOff := m.GlobalLayout[0].Offset % 8192
	if plan.PrefOffset < gOff+256 && gOff < plan.PrefOffset+256 {
		t.Fatalf("heap pref offset %d overlaps hot global at %d", plan.PrefOffset, gOff)
	}
}

func TestNonUniqueXORGetsNoPreferredOffset(t *testing.T) {
	prof, _ := buildProfile(t, 1024, func(tbl *object.Table, em *trace.Emitter) {
		h1 := em.Malloc("h", 128, 0xF)
		h2 := em.Malloc("h", 128, 0xF)
		for i := 0; i < 200; i++ {
			em.Load(h1, 0, 8)
			em.Load(h2, 0, 8)
		}
	})
	m, err := Compute(defaultCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if plan, ok := m.HeapPlans[0xF]; ok && plan.PrefOffset != NoPreference {
		t.Fatalf("non-unique XOR name received preferred offset %d", plan.PrefOffset)
	}
}

func TestPlacementDeterministic(t *testing.T) {
	build := func() *Map {
		prof, _ := buildProfile(t, 2048, func(tbl *object.Table, em *trace.Emitter) {
			var ids []object.ID
			for i := 0; i < 15; i++ {
				ids = append(ids, tbl.AddGlobal("g", int64(64+i*48)))
			}
			alternate(em, 100, ids[:8]...)
			for i := 0; i < 40; i++ {
				h := em.Malloc("h", 64, uint64(0x10+i%3))
				em.Load(h, 0, 8)
				em.Free(h)
			}
		})
		m, err := Compute(defaultCfg(), prof)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := build(), build()
	if len(m1.GlobalLayout) != len(m2.GlobalLayout) {
		t.Fatal("layouts differ in length")
	}
	for i := range m1.GlobalLayout {
		if m1.GlobalLayout[i] != m2.GlobalLayout[i] {
			t.Fatalf("slot %d differs: %+v vs %+v", i, m1.GlobalLayout[i], m2.GlobalLayout[i])
		}
	}
	if m1.StackStart != m2.StackStart {
		t.Fatal("stack starts differ")
	}
}

func TestComputeRejectsNilProfile(t *testing.T) {
	if _, err := Compute(defaultCfg(), nil); err == nil {
		t.Fatal("nil profile accepted")
	}
}

func TestComputeRejectsBadCache(t *testing.T) {
	prof, _ := buildProfile(t, 1024, func(tbl *object.Table, em *trace.Emitter) {})
	cfg := defaultCfg()
	cfg.Cache.Size = 1000 // not a power of two
	if _, err := Compute(cfg, prof); err == nil {
		t.Fatal("invalid cache accepted")
	}
}

// TestRotationCostsMatchNaiveScan cross-validates the correlation-based
// cost engine against the paper's literal line-by-line scan (Figure 2).
func TestRotationCostsMatchNaiveScan(t *testing.T) {
	prof, _ := buildProfile(t, 1024, func(tbl *object.Table, em *trace.Emitter) {
		a := tbl.AddGlobal("a", 700)
		b := tbl.AddGlobal("b", 900)
		c := tbl.AddGlobal("c", 520)
		for i := 0; i < 120; i++ {
			em.Load(a, int64(i*13%640), 8)
			em.Load(b, int64(i*29%832), 8)
			em.Load(c, int64(i*7%512), 8)
			if i%3 == 0 {
				em.Load(a, int64(i*5%640), 8)
			}
		}
	})
	g := prof.Graph

	p := &placer{
		cfg:        defaultCfg(),
		prof:       prof,
		g:          g,
		lines:      256,
		block:      32,
		cacheBytes: 8192,
		placedAt:   make(map[trg.ChunkKey]placedChunk),
	}
	// Fix node 1 ("a") at offset 1234 under tag 7; slide node 2 ("b").
	var na, nb trg.NodeID = trg.NoNode, trg.NoNode
	for i := 0; i < g.NumNodes(); i++ {
		switch g.Node(trg.NodeID(i)).Name {
		case "a":
			na = trg.NodeID(i)
		case "b":
			nb = trg.NodeID(i)
		}
	}
	p.registerChunks(na, 1234, 7)

	sliding := p.nodeChunks(nb)
	fast := p.rotationCosts(sliding, 7)

	// Naive reference: build cache images and scan line pairs, exactly
	// as Figure 2 describes.
	fixedImg := trg.NewCacheImage(256, 32)
	fixedImg.AddNode(g, na, 1234)
	for rot := 0; rot < 256; rot++ {
		slidImg := trg.NewCacheImage(256, 32)
		slidImg.AddNode(g, nb, int64(rot)*32)
		var want uint64
		for line := 0; line < 256; line++ {
			want += fixedImg.CostAgainst(g, line, slidImg, line)
		}
		if fast[rot] != want {
			t.Fatalf("rotation %d: fast cost %d != naive scan %d", rot, fast[rot], want)
		}
	}
}

func TestArgminFromPrefersStart(t *testing.T) {
	costs := []uint64{5, 0, 3, 0}
	if got := argminFrom(costs, 3); got != 3 {
		t.Fatalf("argmin = %d, want 3 (tie resolves toward preferred)", got)
	}
	if got := argminFrom(costs, 0); got != 1 {
		t.Fatalf("argmin = %d, want 1", got)
	}
	if got := argminFrom(costs, -1); got != 3 {
		t.Fatalf("argmin with negative preferred = %d, want 3", got)
	}
}

func TestStackStartRespectsOffset(t *testing.T) {
	prof, _ := buildProfile(t, 4096, func(tbl *object.Table, em *trace.Emitter) {
		em.Load(object.StackID, 0, 8)
	})
	m, err := Compute(defaultCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if m.StackStart > addrspace.StackTop-4096 {
		t.Fatal("stack start above its natural base")
	}
	if addrspace.StackTop-m.StackStart > 4096+8192 {
		t.Fatal("stack moved more than one cache period below natural")
	}
}

func TestMergeLogRecorded(t *testing.T) {
	prof, _ := buildProfile(t, 1024, func(tbl *object.Table, em *trace.Emitter) {
		a := tbl.AddGlobal("a", 300)
		b := tbl.AddGlobal("b", 300)
		c := tbl.AddGlobal("c", 300)
		alternate(em, 150, a, b, c)
	})
	m, err := Compute(defaultCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.MergeLog) == 0 {
		t.Fatal("phase 6 recorded no merges for three related objects")
	}
	for i, step := range m.MergeLog {
		if step.ChosenLine < 0 || step.ChosenLine >= 256 {
			t.Fatalf("merge %d chose line %d outside the cache", i, step.ChosenLine)
		}
		if step.Members < 2 {
			t.Fatalf("merge %d left %d members, want >= 2", i, step.Members)
		}
		if step.Weight == 0 {
			t.Fatalf("merge %d triggered by a zero-weight edge", i)
		}
		// Note: weights are NOT monotonically decreasing — coalescing two
		// edges onto a merged compound can exceed the edge that merged it.
	}
}
