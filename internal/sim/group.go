package sim

import (
	"cmp"
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
// Single-level members run only the cache's geometry step: the stream's
// reference tally is the Enricher's, and Result stamps it onto them.
// Plain members are trace-stripped (see level), and the head levels touch
// a folded run's whole span once; members with a policy on run
// cache.Sim.Step per access of a run. Hierarchy members run the full
// Access/Write per access, since their L2 sees the L1 miss stream, not
// the trace.
// Members must be attached before the first record.
type Group struct {
	Sims  []*cache.Sim
	Hiers []*hierarchy.Sim
	// Pages, when non-nil, sees every resolved reference (Table 5's
	// page and working-set accounting).
	Pages *vmpage.Tracker
	// BlockSteps counts the block touches the stripped members stepped,
	// summed per batch.
	BlockSteps uint64

	alloc heapsim.Allocator
	addr  []addrspace.Addr // per object ID: static or live heap base
	clock uint64

	// split is set once Sims are divided into levels and steps.
	split  bool
	levels []*level // ascending (line size, set count)
	heads  []*level // each line size's first level
	steps  []*cache.Sim
}

// level is one stage of the trace-stripping cascade (Puzak 1985): a
// direct-mapped filter with the line size and set count of its plain
// members, which step only its misses. A line size's first level is fed
// each reference's block touches, each later level the misses of the one
// before, in ascending set order. Set counts are powers of two, so the
// blocks on a filter line of S sets all lie on one line of a coarser
// filter: a hit there was the last block touched on that line, so on
// every finer line too, and skipping it leaves the finer filters exact.
// A hit at a member's own set count finds the block MRU in its set, a
// touch that changes no LRU state and cannot miss.
type level struct {
	shift uint
	mask  uint64
	tags  []uint64 // per filter line: its block + 1, 0 empty
	sims  []*cache.Sim
	buf   []cache.BlockRef // this batch's filter misses
}

// pass filters one block touch, buffering it on a miss. Simulated
// addresses lie far below 2^64, so block + 1 cannot wrap.
func (lv *level) pass(br cache.BlockRef) {
	if line := &lv.tags[br.Blk&lv.mask]; *line != br.Blk+1 {
		*line = br.Blk + 1
		lv.buf = append(lv.buf, br)
	}
}

// touch passes the blocks of a reference, or of a run's span, through
// the filter.
func (lv *level) touch(addr addrspace.Addr, size int64, cat object.Category, obj object.ID) {
	if size <= 0 {
		size = 1
	}
	last := uint64(addr+addrspace.Addr(size)-1) >> lv.shift
	for blk := uint64(addr) >> lv.shift; blk <= last; blk++ {
		lv.pass(cache.BlockRef{Blk: blk, Obj: obj, Cat: cat})
	}
}

// splitMembers gives each distinct (line size, set count) of the plain
// members a level; the other single-level members are stepped per
// reference.
func (g *Group) splitMembers() {
	g.split = true
	for _, cs := range g.Sims {
		if !cs.Plain() {
			g.steps = append(g.steps, cs)
			continue
		}
		cfg := cs.Config()
		shift, mask := uint(bits.TrailingZeros64(uint64(cfg.BlockSize))), uint64(cfg.Sets()-1)
		i := slices.IndexFunc(g.levels, func(lv *level) bool { return lv.shift == shift && lv.mask == mask })
		if i < 0 {
			i = len(g.levels)
			g.levels = append(g.levels, &level{shift: shift, mask: mask, tags: make([]uint64, mask+1)})
		}
		g.levels[i].sims = append(g.levels[i].sims, cs)
	}
	slices.SortFunc(g.levels, func(a, b *level) int {
		return cmp.Or(cmp.Compare(a.shift, b.shift), cmp.Compare(a.mask, b.mask))
	})
	for i, lv := range g.levels {
		if i == 0 || g.levels[i-1].shift != lv.shift {
			g.heads = append(g.heads, lv)
		}
	}
}

// SetLayout resolves every static object of table under lay once and
// installs alloc as the group's heap allocator. It must run before the
// first record; table must already hold every static object.
func (g *Group) SetLayout(table *object.Table, lay *layout.Layout, alloc heapsim.Allocator) {
	g.alloc = alloc
	g.addr = make([]addrspace.Addr, table.Len())
	table.ForEach(func(in *object.Info) {
		if in.Category != object.Heap {
			g.addr[in.ID] = lay.Addr(in)
		}
	})
}

// SameStatics reports whether g and o resolve every static object to the
// same address. Before the first record the address table holds only
// statics.
func (g *Group) SameStatics(o *Group) bool { return slices.Equal(g.addr, o.addr) }

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
	// Read once: the loop's stores through the levels would otherwise
	// reload them per record.
	heads, perAccess := g.heads, len(g.steps)+len(g.Hiers) > 0 || g.Pages != nil
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case trace.Load, trace.Store:
			n := int64(r.More) + 1
			g.clock += uint64(n)
			addr := g.addr[r.Obj] + addrspace.Addr(r.Off)
			for _, lv := range heads {
				lv.touch(addr, n*r.Size, r.Cat, r.Obj)
			}
			if perAccess {
				g.stepRun(r, addr, n)
			}
		case trace.Alloc:
			addr := g.alloc.Alloc(r.Size, r.Info.XORName, g.clock)
			for int(r.Obj) >= len(g.addr) {
				g.addr = append(g.addr, 0)
			}
			g.addr[r.Obj] = addr
		case trace.Free:
			g.alloc.Free(g.addr[r.Obj], r.Size, g.clock)
		}
	}
	for i, lv := range g.levels {
		if i > 0 && g.levels[i-1].shift == lv.shift {
			for _, br := range g.levels[i-1].buf {
				lv.pass(br)
			}
		}
		for _, cs := range lv.sims {
			cs.StepBlocks(lv.buf)
		}
		g.BlockSteps += uint64(len(lv.buf) * len(lv.sims))
	}
	for _, lv := range g.levels {
		lv.buf = lv.buf[:0]
	}
}

// stepRun hands each access of a run to the members that step every
// reference: those with a policy on, the hierarchies and the page tracker.
func (g *Group) stepRun(r *trace.Rec, addr addrspace.Addr, n int64) {
	write := r.Kind == trace.Store
	for ; n > 0; n-- {
		for _, cs := range g.steps {
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
		addr += addrspace.Addr(r.Size)
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
