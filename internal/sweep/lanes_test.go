package sweep

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchGrid is the repository benchmark's sweep grid: gcc over sizes
// 8K,16K x associativity 1,2,4,8 x lines 32,64 x natural,ccdp.
var benchGrid = Grid{
	Sizes:   []int64{8192, 16384},
	Assocs:  []int{1, 2, 4, 8},
	Blocks:  []int64{32, 64},
	Layouts: []string{"natural", "ccdp"},
}

// TestBenchGridExactWork pins the shared engine's exact work on the
// benchmark grid at 5% scale: 32 cells replay as 11 layout groups; the
// two profile configs (queues of 16K and 32K) come from one family scan;
// and the 11 groups' allocators run as 2 heap lanes, natural first fit
// and one custom allocator, so the replay makes two allocator calls per
// Alloc of the stream. Every cell still reports the allocator Stats of a
// whole stream.
func TestBenchGridExactWork(t *testing.T) {
	p := mustPrep(t, smallRequest(t, "gcc", 0.05, benchGrid))
	for _, par := range []int{1, 2} {
		res, err := p.RunShared(par)
		if err != nil {
			t.Fatal(err)
		}
		if res.Groups != 11 || res.ProfilesBroadcast != 2 || res.ProfileScans != 1 || res.HeapLanes != 2 {
			t.Fatalf("parallel %d: %d groups, %d profile configs from %d scans, %d heap lanes; want 11, 2 from 1, 2",
				par, res.Groups, res.ProfilesBroadcast, res.ProfileScans, res.HeapLanes)
		}
		allocs := res.Cells[0].Eval.Counter.Allocs
		if allocs == 0 || res.HeapAllocs != 2*allocs {
			t.Fatalf("parallel %d: lanes made %d allocator calls for a stream of %d allocs, want 2 per alloc", par, res.HeapAllocs, allocs)
		}
		for _, c := range res.Cells {
			if st := c.Eval.AllocStats; st.Allocs != allocs || st.Frees != c.Eval.Counter.Frees {
				t.Fatalf("parallel %d: cell %s reports %d allocs, %d frees; the stream has %d, %d",
					par, c.Cell.Label(), st.Allocs, st.Frees, allocs, c.Eval.Counter.Frees)
			}
		}
	}
}

// TestLaneKey pins what makes two groups share a heap lane: exactly what
// their allocator reads. The custom allocator reads its period only for
// a plan with a preferred offset, so without one the period is no part
// of the key; different plans, bin counts or fits never share a lane.
func TestLaneKey(t *testing.T) {
	pmap := func(sets int, bins int, plans map[uint64]placement.HeapPlan) *placement.Map {
		return &placement.Map{Cache: cache.Config{Size: int64(sets) * 32, BlockSize: 32, Assoc: 1}, NumBins: bins, HeapPlans: plans}
	}
	binOnly := map[uint64]placement.HeapPlan{7: {Bin: 0, PrefOffset: placement.NoPreference}}
	pref := map[uint64]placement.HeapPlan{7: {Bin: 0, PrefOffset: 64}}
	share := func(a, b heapID) bool { return a.laneKey().same(b.laneKey()) }

	if !share(customHeap(pmap(128, 1, binOnly)), customHeap(pmap(512, 1, binOnly))) {
		t.Error("custom allocators differing only in an unread period do not share a lane")
	}
	if share(customHeap(pmap(128, 1, pref)), customHeap(pmap(512, 1, pref))) {
		t.Error("custom allocators with a preferred offset share a lane across periods")
	}
	if !share(customHeap(pmap(128, 1, pref)), customHeap(pmap(128, 1, pref))) {
		t.Error("identical custom allocators with a preferred offset do not share a lane")
	}
	for name, other := range map[string]heapID{
		"plans":      customHeap(pmap(128, 1, map[uint64]placement.HeapPlan{8: {Bin: 0, PrefOffset: placement.NoPreference}})),
		"plan bin":   customHeap(pmap(128, 2, map[uint64]placement.HeapPlan{7: {Bin: 1, PrefOffset: placement.NoPreference}})),
		"bin count":  customHeap(pmap(128, 2, binOnly)),
		"base fit":   {fit: "first"},
		"no plans":   customHeap(pmap(128, 1, nil)),
		"preference": customHeap(pmap(128, 1, pref)),
	} {
		if share(customHeap(pmap(128, 1, binOnly)), other) {
			t.Errorf("allocators differing in %s share a lane", name)
		}
	}
	if share(heapID{fit: "first"}, heapID{fit: "temporal"}) || share(heapID{fit: "first"}, heapID{fit: "random"}) {
		t.Error("different base fits share a lane")
	}
	if !share(heapID{fit: "temporal"}, heapID{fit: "temporal"}) {
		t.Error("one base fit does not share a lane")
	}
}

// TestLanesMatchIndependent is the lanes' differential gate: over
// natural first and temporal fit, random, and CCDP with heap placement
// at several periods, every cell — allocator Stats included — must match
// its independent replay at parallelism 1 to 4. On gcc no heap plan has
// a preferred offset, so all CCDP groups share one custom lane; on a
// synthetic program whose placement gives a heap name a preferred cache
// offset, the period splits the custom lanes.
func TestLanesMatchIndependent(t *testing.T) {
	gcc, err := workload.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		w    workload.Workload
		pref bool
	}{{gcc, false}, {workload.NewSynthetic(0x37), true}} {
		name := tc.w.Name()
		if !tc.w.HeapPlacement() {
			t.Fatalf("%s does not place its heap", name)
		}
		train, test := tc.w.Train(), tc.w.Test()
		train.Bursts /= 20
		test.Bursts /= 20
		opts := sim.DefaultOptions()
		opts.Parallelism = 2
		g := Grid{
			Sizes:   []int64{4096, 8192, 16384},
			Assocs:  []int{1, 2},
			Layouts: []string{"natural", "ccdp", "random"},
			Heaps:   []string{"first", "temporal"},
		}
		p := mustPrep(t, Request{Workload: tc.w, Train: train, Test: test, Grid: g, Options: opts})
		ind, err := p.RunIndependent(2)
		if err != nil {
			t.Fatal(err)
		}
		pref := false
		for _, pm := range p.pms {
			if pm != nil {
				// The lane key keeps the period only for a preferred offset.
				pref = pref || customHeap(pm).laneKey().period != 0
			}
		}
		if pref != tc.pref {
			t.Fatalf("%s: a heap plan with a preferred offset: %v, want %v", name, pref, tc.pref)
		}
		for par := 1; par <= 4; par++ {
			shared, err := p.RunShared(par)
			if err != nil {
				t.Fatalf("%s: parallel %d: %v", name, par, err)
			}
			// Natural first and temporal fit, random, and the custom
			// lanes: one on gcc, one per period otherwise.
			if tc.pref && shared.HeapLanes <= 4 || !tc.pref && shared.HeapLanes != 4 {
				t.Fatalf("%s: parallel %d: %d heap lanes for %d groups", name, par, shared.HeapLanes, shared.Groups)
			}
			if err := DiffResults(shared, ind); err != nil {
				t.Fatalf("%s: parallel %d: %v", name, par, err)
			}
			for i := range shared.Cells {
				if a, b := shared.Cells[i].Eval.AllocStats, ind.Cells[i].Eval.AllocStats; a != b {
					t.Fatalf("%s: parallel %d: cell %s allocator %+v, independent %+v", name, par, shared.Cells[i].Cell.Label(), a, b)
				}
			}
		}
	}
}
