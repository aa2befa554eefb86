package sim

import (
	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/heapsim"
	"repro/internal/hierarchy"
	"repro/internal/layout"
	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/vmpage"
)

// Group is the evaluation harness, the role of the paper's
// address-remapping simulation: it resolves each record's logical
// (object, offset) to an address under one layout — statics through a
// table filled once from the layout, heap objects through the allocator,
// driven by a clock that ticks on loads and stores only — and hands the
// address to every member simulator. Every evaluation runs through it: an
// EvalLayouts pass feeds one group of one member per layout from a single
// enricher, and the sweep engine shares one group among all cells with
// the same effective layout.
//
// Single-level members run only the cache's geometry step
// (cache.Sim.Step): the stream's reference tally is the Enricher's, and
// Result stamps it onto them. Hierarchy members run the full
// Access/Write, since their L2 sees the L1 miss stream, not the trace.
type Group struct {
	Sims  []*cache.Sim
	Hiers []*hierarchy.Sim
	// Pages, when non-nil, sees every resolved reference (Table 5's
	// page and working-set accounting).
	Pages *vmpage.Tracker

	alloc      heapsim.Allocator
	staticAddr []addrspace.Addr
	heapAddr   []addrspace.Addr
	clock      uint64
}

// SetLayout resolves every static object of table under lay once and
// installs alloc as the group's heap allocator. It must run before the
// first record; table must already hold every static object.
func (g *Group) SetLayout(table *object.Table, lay *layout.Layout, alloc heapsim.Allocator) {
	g.alloc = alloc
	g.staticAddr = make([]addrspace.Addr, table.Len())
	table.ForEach(func(in *object.Info) {
		if in.Category != object.Heap {
			g.staticAddr[in.ID] = lay.Addr(in)
		}
	})
}

// AddSim attaches a single-level member for opts.Cache, with
// classification and attribution as opts asks, its per-object counters
// pre-sized to n objects (the table's size when the enricher starts).
func (g *Group) AddSim(opts Options, n int) (*cache.Sim, error) {
	cs, err := cache.New(opts.Cache, opts.Classify)
	if err != nil {
		return nil, err
	}
	if opts.Attribution {
		cs.SetAttribution(cache.NewAttribution(opts.Cache, opts.AttributionPairs))
	}
	cs.PresizeObjects(n)
	g.Sims = append(g.Sims, cs)
	return cs, nil
}

// AddHier attaches a hierarchy member, with L1 attribution as opts asks.
func (g *Group) AddHier(hcfg hierarchy.Config, opts Options, n int) (*hierarchy.Sim, error) {
	hs, err := hierarchy.New(hcfg)
	if err != nil {
		return nil, err
	}
	if opts.Attribution {
		hs.SetAttribution(cache.NewAttribution(hcfg.L1, opts.AttributionPairs))
	}
	hs.PresizeObjects(n)
	g.Hiers = append(g.Hiers, hs)
	return hs, nil
}

// Size is the group's member count.
func (g *Group) Size() int { return len(g.Sims) + len(g.Hiers) }

// HandleRecs implements trace.RecHandler.
func (g *Group) HandleRecs(recs []trace.Rec) {
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case trace.Load, trace.Store:
			g.clock++
			var base addrspace.Addr
			if r.Cat == object.Heap {
				base = g.heapAddr[r.Obj]
			} else {
				base = g.staticAddr[r.Obj]
			}
			addr := base + addrspace.Addr(r.Off)
			write := r.Kind == trace.Store
			for _, cs := range g.Sims {
				cs.Step(addr, r.Size, r.Cat, r.Obj, write)
			}
			for _, hs := range g.Hiers {
				if write {
					hs.Write(addr, r.Size, r.Cat, r.Obj)
				} else {
					hs.Access(addr, r.Size, r.Cat, r.Obj)
				}
			}
			if g.Pages != nil {
				g.Pages.Touch(addr, r.Size)
			}
		case trace.Alloc:
			addr := g.alloc.Alloc(r.Size, r.Info.XORName, g.clock)
			for int(r.Obj) >= len(g.heapAddr) {
				g.heapAddr = append(g.heapAddr, 0)
			}
			g.heapAddr[r.Obj] = addr
		case trace.Free:
			g.alloc.Free(g.heapAddr[r.Obj], r.Size, g.clock)
		}
	}
}

// groups is a sink that hands each record batch to every group in turn.
type groups []Group

// HandleRecs implements trace.RecHandler.
func (gs groups) HandleRecs(recs []trace.Rec) {
	for i := range gs {
		gs[i].HandleRecs(recs)
	}
}

// Result stamps the single-level member cs with en's tally — en must be
// the enricher that fed this group — and reads out its evaluation,
// paging included when the group tracks pages.
func (g *Group) Result(cs *cache.Sim, en *trace.Enricher, kind LayoutKind) *EvalResult {
	cs.SetTally(en.Counter.Refs(), en.Counter.CategoryRefs, en.ObjRefs)
	res := &EvalResult{
		Layout:      kind,
		Stats:       cs.Stats(),
		Counter:     en.Counter,
		Objects:     en.Counter.Objects,
		Attribution: cs.Attribution().Stats(),
		AllocStats:  g.alloc.Stats(),
	}
	res.ObjRefs, res.ObjMisses = cs.ObjectStats()
	if g.Pages != nil {
		res.TotalPages = g.Pages.TotalPages()
		res.WorkingSet = g.Pages.WorkingSet()
	}
	return res
}

// HierResult reads out the evaluation of the hierarchy member hs.
func HierResult(hs *hierarchy.Sim, kind LayoutKind) *HierarchyResult {
	return &HierarchyResult{
		Layout:      kind,
		Stats:       hs.Stats(),
		Attribution: hs.Attribution().Stats(),
	}
}
