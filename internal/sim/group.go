package sim

import (
	"math/bits"
	"slices"

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
// Result stamps it onto them; plain members that share a line size are
// trace-stripped (see stripe). Hierarchy members run the full
// Access/Write, since their L2 sees the L1 miss stream, not the trace.
// Members must be attached before the first record.
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

	// split is set once Sims are divided into stripes and steps.
	split   bool
	stripes []*stripe
	steps   []*cache.Sim
}

// stripe is Puzak's trace stripping for the plain members of one line
// size: a direct-mapped filter with their smallest set count passes on
// only the block touches it misses. Set counts are powers of two, so the
// blocks mapping to a member's set all map to the filter line: a filter
// hit finds the block already MRU in its set in every member, a touch
// that changes no LRU state and cannot miss.
type stripe struct {
	shift, tagShift uint
	mask            uint64
	tags            []uint64 // per filter line: its block's tag + 1, 0 empty
	sims            []*cache.Sim
	buf             []cache.BlockRef // this batch's filter misses
}

// touch passes a reference's blocks through the filter, buffering misses.
func (st *stripe) touch(addr addrspace.Addr, size int64, cat object.Category, obj object.ID) {
	if size <= 0 {
		size = 1
	}
	last := uint64(addr+addrspace.Addr(size)-1) >> st.shift
	for blk := uint64(addr) >> st.shift; blk <= last; blk++ {
		// A way holds at least 16 bytes (cache.Validate): tag+1 cannot wrap.
		line, tag := &st.tags[blk&st.mask], blk>>st.tagShift+1
		if *line != tag {
			*line = tag
			st.buf = append(st.buf, cache.BlockRef{Blk: blk, Obj: obj, Cat: cat})
		}
	}
}

// splitMembers gives every line size with two or more plain members a
// stripe; the other single-level members are stepped per reference.
func (g *Group) splitMembers() {
	g.split = true
	byLine := map[int64]*stripe{}
	for _, cs := range g.Sims {
		if cfg := cs.Config(); cs.Plain() {
			st := byLine[cfg.BlockSize]
			if st == nil {
				st = &stripe{shift: uint(bits.TrailingZeros64(uint64(cfg.BlockSize))), mask: ^uint64(0)}
				byLine[cfg.BlockSize] = st
			}
			st.mask = min(st.mask, uint64(cfg.Sets()-1))
			st.sims = append(st.sims, cs)
		}
	}
	for _, cs := range g.Sims {
		switch st := byLine[cs.Config().BlockSize]; {
		case !cs.Plain() || len(st.sims) < 2:
			g.steps = append(g.steps, cs)
		case st.tags == nil:
			st.tagShift = uint(bits.OnesCount64(st.mask))
			st.tags = make([]uint64, st.mask+1)
			g.stripes = append(g.stripes, st)
		}
	}
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

// SameStatics reports whether g and o resolve every static object to the
// same address.
func (g *Group) SameStatics(o *Group) bool { return slices.Equal(g.staticAddr, o.staticAddr) }

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
	if !g.split {
		g.splitMembers()
	}
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
			for _, cs := range g.steps {
				cs.Step(addr, r.Size, r.Cat, r.Obj, write)
			}
			for _, st := range g.stripes {
				st.touch(addr, r.Size, r.Cat, r.Obj)
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
	for _, st := range g.stripes {
		for _, cs := range st.sims {
			cs.StepBlocks(st.buf)
		}
		st.buf = st.buf[:0]
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
