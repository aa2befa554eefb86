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
// blocks at every line size) with enough locality to hit. It also returns
// the static object count, the table's size before the first record.
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
			// A short stride from the previous reference.
			prev := recs[len(recs)-1]
			prev.Off = min(max(prev.Off+int64(r.Intn(24)-8), 0), table.Get(prev.Obj).Size-1)
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

// TestStrippedGroupMatchesAccessReplay holds a group whose plain members
// are trace-stripped to independent cache.Sim Access/Write replays of the
// same addresses: three line sizes with several plain members each (so
// each gets a filter sized by its smallest set count, from 1 to 32 sets),
// a lone plain member at a fourth line size, members with each optional
// policy on, and a hierarchy member, fed in batches of 1, 61 and 4096
// records. Every member's Stats and per-object counters, and the
// attributing member's attribution, must equal its replay's.
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

		for _, batch := range []int{1, 61, 4096} {
			var g Group
			g.SetLayout(table, lay, heapsim.NewFirstFit())
			got := make([]*cache.Sim, len(members))
			for i, m := range members {
				opts := DefaultOptions()
				opts.Cache, opts.Classify, opts.Attribution = m.cfg, m.classify, m.attribution
				if got[i], err = g.AddSim(opts, n); err != nil {
					t.Fatal(err)
				}
			}
			gotHier, err := g.AddHier(hcfg, DefaultOptions(), n)
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(recs); lo += batch {
				g.HandleRecs(recs[lo:min(lo+batch, len(recs))])
			}
			var striped []int
			for _, st := range g.stripes {
				striped = append(striped, len(st.sims))
			}
			if !reflect.DeepEqual(striped, []int{5, 5, 4}) {
				t.Errorf("stripes hold %v plain members, want [5 5 4]", striped)
			}

			for i, cs := range got {
				w := want[i]
				ws := w.Stats()
				wrefs, wmisses := w.ObjectStats()
				cs.SetTally(ws.Accesses, ws.CategoryAccesses, wrefs)
				refs, misses := cs.ObjectStats()
				where := fmt.Sprintf("seed %d batch %d member %s", seed, batch, members[i].cfg.Short())
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
				t.Errorf("seed %d batch %d: hierarchy stats\n got %+v\nwant %+v", seed, batch, gs, ws)
			}
		}
	}
}
