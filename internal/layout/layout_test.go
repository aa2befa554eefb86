package layout

import (
	"testing"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/object"
	"repro/internal/placement"
	"repro/internal/profile"
	"repro/internal/trace"
)

func declaredTable() *object.Table {
	tbl := object.NewTable(2048)
	cursor := addrspace.GlobalBase
	for i, size := range []int64{64, 128, 32, 256} {
		id := tbl.AddGlobal("g", size)
		tbl.Get(id).NaturalAddr = cursor
		cursor = addrspace.Align(cursor+addrspace.Addr(size), GlobalAlign)
		_ = i
	}
	tbl.AddConstant("c", 128, addrspace.TextBase+64)
	return tbl
}

func TestNaturalLayout(t *testing.T) {
	tbl := declaredTable()
	l := Natural(tbl)
	if l.Kind != "natural" {
		t.Fatalf("kind %q", l.Kind)
	}
	tbl.ForEach(func(in *object.Info) {
		if in.Category == object.Heap {
			return
		}
		if got := l.Addr(in); got != in.NaturalAddr {
			t.Errorf("%s placed at %#x, want natural %#x", in.Name, uint64(got), uint64(in.NaturalAddr))
		}
	})
	if l.GlobalExtent <= 0 {
		t.Error("global extent not computed")
	}
}

func TestLayoutAddrPanicsOnHeap(t *testing.T) {
	tbl := declaredTable()
	h := tbl.AddHeap("h", 64, 1, 0)
	l := Natural(tbl)
	defer func() {
		if recover() == nil {
			t.Fatal("Addr of heap object did not panic")
		}
	}()
	l.Addr(tbl.Get(h))
}

func TestRandomLayoutDeterministic(t *testing.T) {
	tbl := declaredTable()
	l1 := Random(tbl, 42)
	l2 := Random(tbl, 42)
	tbl.ForEach(func(in *object.Info) {
		if in.Category != object.Global {
			return
		}
		if l1.Addr(in) != l2.Addr(in) {
			t.Errorf("random layout differs for %s with same seed", in.Name)
		}
	})
	if l1.StackStart != l2.StackStart {
		t.Error("random stack start not deterministic")
	}
}

func TestRandomLayoutDiffersAcrossSeeds(t *testing.T) {
	tbl := declaredTable()
	l1 := Random(tbl, 1)
	l2 := Random(tbl, 2)
	same := true
	tbl.ForEach(func(in *object.Info) {
		if in.Category == object.Global && l1.Addr(in) != l2.Addr(in) {
			same = false
		}
	})
	if same {
		t.Error("random layouts identical across different seeds")
	}
}

func TestRandomLayoutNoOverlap(t *testing.T) {
	tbl := declaredTable()
	l := Random(tbl, 7)
	type span struct{ a, b addrspace.Addr }
	var spans []span
	tbl.ForEach(func(in *object.Info) {
		if in.Category != object.Global {
			return
		}
		at := l.Addr(in)
		spans = append(spans, span{at, at + addrspace.Addr(in.Size)})
	})
	for i := range spans {
		for j := range spans {
			if i < j && spans[i].a < spans[j].b && spans[j].a < spans[i].b {
				t.Fatalf("random layout overlaps: %v %v", spans[i], spans[j])
			}
		}
	}
}

// buildPlacedLayout profiles a tiny run and produces a CCDP layout.
func buildPlacedLayout(t *testing.T) (*object.Table, *profile.Profile, *placement.Map, *Layout) {
	t.Helper()
	tbl := object.NewTable(1024)
	p, err := profile.New(profile.DefaultConfig(8192), tbl)
	if err != nil {
		t.Fatal(err)
	}
	em := trace.NewEmitter(tbl, trace.NewEnricher(tbl, p))
	cursor := addrspace.GlobalBase
	var ids []object.ID
	for _, size := range []int64{300, 200, 100} {
		id := tbl.AddGlobal("g", size)
		tbl.Get(id).NaturalAddr = cursor
		cursor = addrspace.Align(cursor+addrspace.Addr(size), GlobalAlign)
		ids = append(ids, id)
	}
	for i := 0; i < 100; i++ {
		for _, id := range ids {
			em.Load(id, 0, 8)
		}
	}
	prof := p.Finish()
	pm, err := placement.Compute(placement.Config{Cache: cache.DefaultConfig}, prof)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := FromPlacement(tbl, prof, pm)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, prof, pm, lay
}

func TestFromPlacementCoversAllGlobals(t *testing.T) {
	tbl, _, pm, lay := buildPlacedLayout(t)
	tbl.ForEach(func(in *object.Info) {
		if in.Category != object.Global {
			return
		}
		at := lay.Addr(in)
		if at < pm.GlobalSegStart {
			t.Errorf("%s placed below the segment base", in.Name)
		}
	})
	if lay.Kind != "ccdp" {
		t.Fatalf("kind %q", lay.Kind)
	}
	if lay.StackStart != pm.StackStart {
		t.Fatal("stack start not taken from placement map")
	}
}

func TestFromPlacementMatchesSlotOffsets(t *testing.T) {
	tbl, prof, pm, lay := buildPlacedLayout(t)
	// Every slot's address must equal segment start + offset for the
	// object bound to that node.
	objOf := make(map[int]object.ID)
	tbl.ForEach(func(in *object.Info) {
		if in.Category == object.Global {
			objOf[int(prof.Node(in.ID))] = in.ID
		}
	})
	for i, slot := range pm.GlobalLayout {
		oid := objOf[int(slot.Node)]
		if got, want := lay.Addr(tbl.Get(oid)), pm.GlobalAddr(i); got != want {
			t.Fatalf("slot %d: layout %#x, placement %#x", i, uint64(got), uint64(want))
		}
	}
}
