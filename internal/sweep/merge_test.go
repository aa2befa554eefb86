package sweep

import (
	"testing"

	"repro/internal/heapsim"
	"repro/internal/layout"
	"repro/internal/object"
	"repro/internal/placement"
)

// TestMergedLayoutsMatchIndependent runs a grid whose CCDP placements
// coincide: gcc packs one way's period (sets × line size), so the 8K
// direct-mapped and 16K 2-way targets get the same layout and share one
// replayed group. The shared run must replay fewer groups than there are
// group keys and stay byte-identical to independent per-cell replays at
// every parallelism, while its progress still counts every carved layout.
func TestMergedLayoutsMatchIndependent(t *testing.T) {
	g := Grid{
		Sizes:   []int64{8192, 16384},
		Assocs:  []int{1, 2},
		Layouts: []string{"natural", "ccdp"},
	}
	req := smallRequest(t, "gcc", 0.05, g)
	p := mustPrep(t, req)
	ind, err := p.RunIndependent(2)
	if err != nil {
		t.Fatal(err)
	}
	keys := len(cellGroupWeights(p))
	for _, par := range []int{1, 2, 3, 4} {
		var last Progress
		req := req
		req.OnProgress = func(pr Progress) { last = pr }
		shared, err := mustPrep(t, req).RunShared(par)
		if err != nil {
			t.Fatalf("parallel %d: %v", par, err)
		}
		if shared.Groups >= keys {
			t.Fatalf("parallel %d: %d groups replayed for %d group keys: no layout merged", par, shared.Groups, keys)
		}
		if last.Groups != keys || last.GroupsDone != last.Groups {
			t.Fatalf("parallel %d: progress carved %d/%d layouts, want %d/%d", par, last.GroupsDone, last.Groups, keys, keys)
		}
		if err := DiffResults(shared, ind); err != nil {
			t.Fatalf("parallel %d: %v", par, err)
		}
	}
}

// TestSameLayoutRule pins the merge rule: carved CCDP groups merge only
// when their static addresses and everything their heap allocator depends
// on agree.
func TestSameLayoutRule(t *testing.T) {
	table := object.NewTable(1024)
	table.AddGlobal("a", 64)
	table.AddGlobal("b", 128)
	carve := func(lay *layout.Layout, heap heapID) *layoutGroup {
		g := &layoutGroup{heap: heap}
		g.SetLayout(table, lay, heapsim.NewFirstFit())
		return g
	}
	plans := func(bin int) map[uint64]placement.HeapPlan {
		return map[uint64]placement.HeapPlan{7: {Bin: bin, PrefOffset: placement.NoPreference}}
	}
	custom := heapID{fit: "custom", period: 8192, bins: 2, plans: plans(0)}
	natural, random := layout.Natural(table), layout.Random(table, 3)
	base := carve(natural, custom)

	if !sameLayout(base, carve(natural, heapID{fit: "custom", period: 8192, bins: 2, plans: plans(0)})) {
		t.Fatal("identical statics and custom allocator inputs did not merge")
	}
	if !sameLayout(carve(natural, heapID{fit: "first"}), carve(natural, heapID{fit: "first"})) {
		t.Fatal("identical statics and base fit did not merge")
	}
	for name, other := range map[string]*layoutGroup{
		"statics":    carve(random, custom),
		"heap plans": carve(natural, heapID{fit: "custom", period: 8192, bins: 2, plans: plans(1)}),
		"bins":       carve(natural, heapID{fit: "custom", period: 8192, bins: 3, plans: plans(0)}),
		"period":     carve(natural, heapID{fit: "custom", period: 4096, bins: 2, plans: plans(0)}),
		"fit":        carve(natural, heapID{fit: "temporal", period: 8192, bins: 2, plans: plans(0)}),
	} {
		if sameLayout(base, other) || sameLayout(other, base) {
			t.Errorf("groups differing in %s merged", name)
		}
	}
	if sameLayout(carve(natural, heapID{fit: "first"}), carve(natural, heapID{fit: "temporal"})) {
		t.Error("groups differing in base fit merged")
	}
}
