package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/heapsim"
	"repro/internal/hierarchy"
	"repro/internal/layout"
	"repro/internal/object"
	"repro/internal/trace"
)

// stripeMember is one single-level member of the stripping oracle's group.
type stripeMember struct {
	cfg                   cache.Config
	classify, attribution bool
}

// stripeStream builds a seeded record stream over a small table: globals
// and the stack at fixed addresses, heap objects born and freed along the
// way, and loads and stores of 0 to 200 bytes (so references span several
// blocks at every line size), often in runs of adjacent accesses, with
// enough locality to hit. It also returns the static object count, the
// table's size before the first record.
func stripeStream(seed int64) (*object.Table, int, []trace.Rec) {
	r := rand.New(rand.NewSource(seed))
	table := object.NewTable(2048)
	at := addrspace.GlobalBase
	for i := 0; i < 12; i++ {
		size := int64(8 << r.Intn(9)) // 8 B to 2 KiB
		id := table.AddGlobal(fmt.Sprintf("g%d", i), size)
		table.Get(id).NaturalAddr = at
		at += addrspace.Addr(size)
	}
	statics := table.Len()
	var recs []trace.Rec
	var live []object.ID
	hot := []object.ID{0, 1, 2}
	for len(recs) < 40000 {
		switch k := r.Intn(100); {
		case k < 2 || len(live) == 0:
			size := int64(16 + r.Intn(600))
			id := table.AddHeap("h", size, uint64(r.Intn(5)), 0)
			in := *table.Get(id)
			recs = append(recs, trace.Rec{Kind: trace.Alloc, Cat: object.Heap, Obj: id, Size: size, Info: &in})
			live = append(live, id)
			hot[r.Intn(len(hot))] = id
		case k < 3 && len(live) > 1:
			i := r.Intn(len(live) - 1) // the newest object stays live
			id := live[i]
			live = slices.Delete(live, i, i+1)
			for j := range hot {
				if hot[j] == id {
					hot[j] = live[len(live)-1]
				}
			}
			recs = append(recs, trace.Rec{Kind: trace.Free, Cat: object.Heap, Obj: id, Size: table.Get(id).Size})
		case k < 60 && len(recs) > 0 && recs[len(recs)-1].Kind != trace.Alloc && recs[len(recs)-1].Kind != trace.Free:
			// The next access of a run, or a short stride from the
			// previous reference.
			prev := recs[len(recs)-1]
			if size := table.Get(prev.Obj).Size; k < 30 && prev.Off+2*prev.Size <= size {
				prev.Off += prev.Size
			} else {
				prev.Off = min(max(prev.Off+int64(r.Intn(24)-8), 0), size-1)
			}
			recs = append(recs, prev)
		default:
			id := hot[r.Intn(len(hot))]
			if r.Intn(4) == 0 {
				id = object.ID(r.Intn(table.Len()))
				if table.Get(id).Category == object.Heap && !slices.Contains(live, id) {
					id = live[r.Intn(len(live))]
				}
				hot[r.Intn(len(hot))] = id
			}
			in := table.Get(id)
			size := []int64{0, 1, 4, 8, 8, 16, 40, 100, 200}[r.Intn(9)]
			off := r.Int63n(in.Size)
			kind := trace.Load
			if r.Intn(3) == 0 {
				kind = trace.Store
			}
			recs = append(recs, trace.Rec{Kind: kind, Cat: in.Category, Obj: id, Off: off, Size: size})
		}
	}
	return table, statics, recs
}

// stripeFeed is one way the stripping oracles hand a stream to a group:
// its records, folded or not, in batches of a given size.
type stripeFeed struct {
	recs   []trace.Rec
	folded bool
	batch  int
}

// stripeFeeds is the stream in batches of 1, 61 and 4096 records, as
// generated and with its runs of adjacent accesses folded by an enricher.
func stripeFeeds(table *object.Table, recs []trace.Rec) []stripeFeed {
	evs := make([]trace.Event, len(recs))
	for i, r := range recs {
		evs[i] = trace.Event{Kind: r.Kind, Obj: r.Obj, Off: r.Off, Size: r.Size}
	}
	folded := trace.NewEnricher(table, nil).Append(nil, evs...)
	var feeds []stripeFeed
	for _, batch := range []int{1, 61, 4096} {
		feeds = append(feeds, stripeFeed{recs, false, batch}, stripeFeed{folded, true, batch})
	}
	return feeds
}

func (f stripeFeed) String() string { return fmt.Sprintf("batch %d folded=%v", f.batch, f.folded) }

func (f stripeFeed) replay(g *Group) {
	for lo := 0; lo < len(f.recs); lo += f.batch {
		g.HandleRecs(f.recs[lo:min(lo+f.batch, len(f.recs))])
	}
}

// TestStrippedGroupMatchesAccessReplay holds a group whose plain members
// are trace-stripped to independent cache.Sim Access/Write replays of the
// same addresses: plain members at four line sizes and set counts from 1
// to 32 (so a line size's cascade chains up to three levels, and the lone
// member at the fourth line size takes a level of its own), members with
// each optional policy on, and a hierarchy member, fed the stream and its
// folded copy in batches of 1, 61 and 4096 records; the replays always
// see one access at a time. The cascade's levels are pinned as (line size,
// set count, members). Every member's Stats and per-object counters, and
// the attributing member's attribution, must equal its replay's.
func TestStrippedGroupMatchesAccessReplay(t *testing.T) {
	c := func(size, block int64, assoc int) cache.Config {
		return cache.Config{Size: size, BlockSize: block, Assoc: assoc}
	}
	members := []stripeMember{
		{cfg: c(512, 16, 1)}, {cfg: c(1024, 16, 2)}, {cfg: c(1536, 16, 3)}, {cfg: c(256, 16, 4)}, {cfg: c(2048, 16, 8)},
		{cfg: c(1024, 32, 1)}, {cfg: c(2048, 32, 2)}, {cfg: c(3072, 32, 3)}, {cfg: c(256, 32, 8)}, {cfg: c(4096, 32, 4)},
		{cfg: c(2048, 64, 1)}, {cfg: c(1024, 64, 2)}, {cfg: c(4096, 64, 8)}, {cfg: c(512, 64, 1)},
		{cfg: c(1024, 128, 1)},
		{cfg: c(1024, 32, 1), classify: true},
		{cfg: c(2048, 32, 2), attribution: true},
		{cfg: cache.Config{Size: 1024, BlockSize: 32, Assoc: 1, Prefetch: true}},
		{cfg: cache.Config{Size: 2048, BlockSize: 64, Assoc: 2, WriteBack: true}},
		{cfg: cache.Config{Size: 1024, BlockSize: 16, Assoc: 1, VictimEntries: 4}},
	}
	hcfg := hierarchy.Config{L1: c(1024, 32, 1), L2: c(8192, 32, 4), TLBEntries: 8}

	for _, seed := range []int64{1, 2, 3} {
		table, n, recs := stripeStream(seed)
		lay := layout.Natural(table)

		// The oracle: each member on its own, through Access and Write.
		want := make([]*cache.Sim, len(members))
		for i, m := range members {
			cs, err := cache.New(m.cfg, m.classify)
			if err != nil {
				t.Fatal(err)
			}
			if m.attribution {
				cs.SetAttribution(cache.NewAttribution(m.cfg, 0))
			}
			cs.PresizeObjects(n)
			want[i] = cs
		}
		wantHier, err := hierarchy.New(hcfg)
		if err != nil {
			t.Fatal(err)
		}
		alloc, heap, clock := heapsim.NewFirstFit(), map[object.ID]addrspace.Addr{}, uint64(0)
		for i := range recs {
			r := &recs[i]
			switch r.Kind {
			case trace.Alloc:
				heap[r.Obj] = alloc.Alloc(r.Size, r.Info.XORName, clock)
			case trace.Free:
				alloc.Free(heap[r.Obj], r.Size, clock)
			default:
				clock++
				addr := heap[r.Obj] + addrspace.Addr(r.Off)
				if r.Cat != object.Heap {
					addr = lay.Addr(table.Get(r.Obj)) + addrspace.Addr(r.Off)
				}
				for _, cs := range want {
					if r.Kind == trace.Store {
						cs.Write(addr, r.Size, r.Cat, r.Obj)
					} else {
						cs.Access(addr, r.Size, r.Cat, r.Obj)
					}
				}
				if r.Kind == trace.Store {
					wantHier.Write(addr, r.Size, r.Cat, r.Obj)
				} else {
					wantHier.Access(addr, r.Size, r.Cat, r.Obj)
				}
			}
		}

		for _, f := range stripeFeeds(table, recs) {
			var g Group
			g.SetLayout(table, lay, heapsim.NewFirstFit())
			got := make([]*cache.Sim, len(members))
			for i, m := range members {
				opts := DefaultOptions()
				opts.Cache, opts.Classify, opts.Attribution = m.cfg, m.classify, m.attribution
				ms, err := g.Add(Member{Cache: m.cfg}, opts, n)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = ms.Cache
			}
			ms, err := g.Add(Member{Hier: &hcfg}, DefaultOptions(), n)
			if err != nil {
				t.Fatal(err)
			}
			gotHier := ms.Hier
			f.replay(&g)
			var levels [][3]int
			for _, lv := range g.levels {
				levels = append(levels, [3]int{1 << lv.shift, int(lv.mask + 1), len(lv.sims)})
			}
			wantLevels := [][3]int{{16, 4, 1}, {16, 16, 1}, {16, 32, 3}, {32, 1, 1}, {32, 32, 4}, {64, 8, 3}, {64, 32, 1}, {128, 8, 1}}
			if !reflect.DeepEqual(levels, wantLevels) {
				t.Errorf("levels (line, sets, members) = %v, want %v", levels, wantLevels)
			}

			for i, cs := range got {
				w := want[i]
				ws := w.Stats()
				wrefs, wmisses := w.ObjectStats()
				cs.SetTally(ws.Accesses, ws.CategoryAccesses, wrefs)
				refs, misses := cs.ObjectStats()
				where := fmt.Sprintf("seed %d %s member %s", seed, f, members[i].cfg.Short())
				if gs := cs.Stats(); gs != ws {
					t.Errorf("%s: stats\n got %+v\nwant %+v", where, gs, ws)
				}
				if !slices.Equal(refs, wrefs) || !slices.Equal(misses, wmisses) {
					t.Errorf("%s: per-object counters differ", where)
				}
				if !reflect.DeepEqual(cs.Attribution().Stats(), w.Attribution().Stats()) {
					t.Errorf("%s: attribution differs", where)
				}
			}
			if gs, ws := gotHier.Stats(), wantHier.Stats(); gs != ws {
				t.Errorf("seed %d %s: hierarchy stats\n got %+v\nwant %+v", seed, f, gs, ws)
			}
		}
	}
}

// TestStrippedStepsMatchFilterMisses holds the cascade to exact work: on
// the stripping oracle's streams, the block touches a group's plain
// members step (Group.BlockSteps) must sum, over those members, the
// misses of a standalone direct-mapped cache.Sim with the member's line
// size and set count, driven by Access/Write over the same addresses.
// A member fed more than its own filter's misses — a level left
// unfiltered, or fed the full stream — still simulates exactly, only
// slower, which the stats oracle cannot see. The folded copy of a stream
// must step exactly as many blocks. Members with a policy on step per
// reference and are not counted.
func TestStrippedStepsMatchFilterMisses(t *testing.T) {
	c := func(size, block int64, assoc int) cache.Config {
		return cache.Config{Size: size, BlockSize: block, Assoc: assoc}
	}
	cfgs := []cache.Config{
		c(512, 16, 1), c(1024, 16, 2), c(1536, 16, 3), c(256, 16, 4), c(2048, 16, 8),
		c(1024, 32, 1), c(2048, 32, 2), c(3072, 32, 3), c(256, 32, 8), c(4096, 32, 4),
		c(2048, 64, 1), c(1024, 64, 2), c(4096, 64, 8), c(512, 64, 1),
		c(1024, 128, 1),
		{Size: 1024, BlockSize: 32, Assoc: 1, Prefetch: true},
	}
	for _, seed := range []int64{1, 2, 3} {
		table, n, recs := stripeStream(seed)
		lay := layout.Natural(table)

		// The oracle: one direct-mapped filter per plain member.
		var filters []*cache.Sim
		for _, cfg := range cfgs[:len(cfgs)-1] {
			dm, err := cache.New(c(int64(cfg.Sets())*cfg.BlockSize, cfg.BlockSize, 1), false)
			if err != nil {
				t.Fatal(err)
			}
			filters = append(filters, dm)
		}
		alloc, heap, clock := heapsim.NewFirstFit(), map[object.ID]addrspace.Addr{}, uint64(0)
		for i := range recs {
			r := &recs[i]
			switch r.Kind {
			case trace.Alloc:
				heap[r.Obj] = alloc.Alloc(r.Size, r.Info.XORName, clock)
			case trace.Free:
				alloc.Free(heap[r.Obj], r.Size, clock)
			default:
				clock++
				addr := heap[r.Obj] + addrspace.Addr(r.Off)
				if r.Cat != object.Heap {
					addr = lay.Addr(table.Get(r.Obj)) + addrspace.Addr(r.Off)
				}
				for _, dm := range filters {
					if r.Kind == trace.Store {
						dm.Write(addr, r.Size, r.Cat, r.Obj)
					} else {
						dm.Access(addr, r.Size, r.Cat, r.Obj)
					}
				}
			}
		}
		var want uint64
		for _, dm := range filters {
			want += dm.Stats().Misses
		}

		for _, f := range stripeFeeds(table, recs) {
			var g Group
			g.SetLayout(table, lay, heapsim.NewFirstFit())
			for _, cfg := range cfgs {
				opts := DefaultOptions()
				opts.Cache = cfg
				if _, err := g.Add(Member{Cache: cfg}, opts, n); err != nil {
					t.Fatal(err)
				}
			}
			f.replay(&g)
			if g.BlockSteps != want {
				t.Errorf("seed %d %s: plain members stepped %d blocks, want their filters' %d misses",
					seed, f, g.BlockSteps, want)
			}
		}
	}
}
