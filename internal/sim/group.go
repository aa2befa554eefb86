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
// table filled once from the layout, heap objects at the address its
// heap Lane gave their Alloc — and hands the address to every member
// simulator. Every evaluation runs through it: a Run pass feeds one group
// per layout from a single enricher, and the sweep engine shares one
// group among all cells with the same effective layout, and one lane
// among all groups with the same allocator.
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

	lane  *Lane
	addr  []addrspace.Addr // per object ID: static or live heap base
	clock Clock            // fed by HandleRecs
	ops   []HeapOp         // a batch's heap operations, for the own lane
	heap  []addrspace.Addr // the own lane's Alloc addresses for a batch

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

// HeapOp is one Alloc or Free of a record batch: the record's index in
// the batch and the stream's reference clock there.
type HeapOp struct {
	I     int
	Clock uint64
}

// Clock is a record stream's reference clock, which ticks on loads and
// stores only. Every allocator over one stream reads the same clock, so
// one walk of a batch stamps its heap operations for all of them.
type Clock struct{ now uint64 }

// Stamp appends to dst the batch's Allocs and Frees, in stream order,
// each with the clock at it, and advances the clock past the batch.
func (c *Clock) Stamp(recs []trace.Rec, dst []HeapOp) []HeapOp {
	for i := range recs {
		switch recs[i].Kind {
		case trace.Load, trace.Store:
			c.now += uint64(recs[i].More) + 1
		case trace.Alloc, trace.Free:
			dst = append(dst, HeapOp{I: i, Clock: c.now})
		}
	}
	return dst
}

// Lane is a heap allocator driven by a record stream's heap operations,
// with its own table of live heap blocks. Its addresses depend on nothing
// but the stream, so every group whose allocator reads the same inputs
// can share one lane's addresses.
type Lane struct {
	alloc heapsim.Allocator
	addr  []addrspace.Addr // per object ID: live heap base, for Free
}

// NewLane returns a lane over alloc.
func NewLane(alloc heapsim.Allocator) *Lane { return &Lane{alloc: alloc} }

// Resolve runs the allocator over one record batch's heap operations, ops
// as Clock.Stamp gave them, and appends to dst the address of each Alloc.
func (l *Lane) Resolve(recs []trace.Rec, ops []HeapOp, dst []addrspace.Addr) []addrspace.Addr {
	for _, op := range ops {
		r := &recs[op.I]
		if r.Kind == trace.Free {
			l.alloc.Free(l.addr[r.Obj], r.Size, op.Clock)
			continue
		}
		addr := l.alloc.Alloc(r.Size, r.Info.XORName, op.Clock)
		for int(r.Obj) >= len(l.addr) {
			l.addr = append(l.addr, 0)
		}
		l.addr[r.Obj] = addr
		dst = append(dst, addr)
	}
	return dst
}

// Stats reports the allocator's counters.
func (l *Lane) Stats() heapsim.Stats { return l.alloc.Stats() }

// SetLayout resolves every static object of table under lay once and
// gives the group its own lane over alloc. It must run before the first
// record; table must already hold every static object.
func (g *Group) SetLayout(table *object.Table, lay *layout.Layout, alloc heapsim.Allocator) {
	g.lane = NewLane(alloc)
	g.addr = make([]addrspace.Addr, table.Len())
	table.ForEach(func(in *object.Info) {
		if in.Category != object.Heap {
			g.addr[in.ID] = lay.Addr(in)
		}
	})
}

// Lane returns the group's heap lane.
func (g *Group) Lane() *Lane { return g.lane }

// SetLane makes l the group's heap lane, in place of its own. A group on
// a shared lane is fed through Replay, after l has resolved each batch.
func (g *Group) SetLane(l *Lane) { g.lane = l }

// SameStatics reports whether g and o resolve every static object to the
// same address. Before the first record the address table holds only
// statics.
func (g *Group) SameStatics(o *Group) bool { return slices.Equal(g.addr, o.addr) }

// Member is one simulator of a group: a single-level cache, or with Hier
// set, an L1+L2+TLB hierarchy (Cache is then unused).
type Member struct {
	Cache cache.Config
	Hier  *hierarchy.Config
}

// MemberSim is an attached member's simulator: Cache for a single-level
// member, Hier for a hierarchy.
type MemberSim struct {
	Cache *cache.Sim
	Hier  *hierarchy.Sim
}

// MemberResult is a member's evaluation: Eval for a single-level member,
// Hier for a hierarchy.
type MemberResult struct {
	Eval *EvalResult
	Hier *HierarchyResult
}

// Add attaches member m, with classification and attribution (on a
// hierarchy's L1) as opts asks, its per-object counters pre-sized to n
// objects (the table's size when the enricher starts).
func (g *Group) Add(m Member, opts Options, n int) (MemberSim, error) {
	if m.Hier != nil {
		hs, err := hierarchy.New(*m.Hier)
		if err != nil {
			return MemberSim{}, err
		}
		if opts.Attribution {
			hs.SetAttribution(cache.NewAttribution(m.Hier.L1, opts.AttributionPairs))
		}
		hs.PresizeObjects(n)
		g.Hiers = append(g.Hiers, hs)
		return MemberSim{Hier: hs}, nil
	}
	cs, err := cache.New(m.Cache, opts.Classify)
	if err != nil {
		return MemberSim{}, err
	}
	if opts.Attribution {
		cs.SetAttribution(cache.NewAttribution(m.Cache, opts.AttributionPairs))
	}
	cs.PresizeObjects(n)
	g.Sims = append(g.Sims, cs)
	return MemberSim{Cache: cs}, nil
}

// Size is the group's member count.
func (g *Group) Size() int { return len(g.Sims) + len(g.Hiers) }

// HandleRecs implements trace.RecHandler: the group's lane resolves the
// batch's heap addresses, then the members replay it.
func (g *Group) HandleRecs(recs []trace.Rec) {
	g.ops = g.clock.Stamp(recs, g.ops[:0])
	g.heap = g.lane.Resolve(recs, g.ops, g.heap[:0])
	g.Replay(recs, g.ops, g.heap)
}

// Replay steps the members through one record batch: ops are its heap
// operations, as Clock.Stamp gave them, and the group's lane placed its
// k-th Alloc at heap[k]. The loads and stores between two heap operations
// replay as one run of accesses.
func (g *Group) Replay(recs []trace.Rec, ops []HeapOp, heap []addrspace.Addr) {
	if !g.split {
		g.splitMembers()
	}
	from := 0
	for _, op := range ops {
		g.access(recs[from:op.I])
		from = op.I + 1
		if r := &recs[op.I]; r.Kind == trace.Alloc {
			for int(r.Obj) >= len(g.addr) {
				g.addr = append(g.addr, 0)
			}
			g.addr[r.Obj], heap = heap[0], heap[1:]
		}
	}
	g.access(recs[from:])
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

// access resolves a run of loads and stores and feeds them to the
// members.
func (g *Group) access(recs []trace.Rec) {
	// Read once: the loop's stores through the levels would otherwise
	// reload them per record.
	heads, perAccess := g.heads, len(g.steps)+len(g.Hiers) > 0 || g.Pages != nil
	for i := range recs {
		r := &recs[i]
		n := int64(r.More) + 1
		addr := g.addr[r.Obj] + addrspace.Addr(r.Off)
		for _, lv := range heads {
			lv.touch(addr, n*r.Size, r.Cat, r.Obj)
		}
		if perAccess {
			g.stepRun(r, addr, n)
		}
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

// Result reads out member m's evaluation. A single-level member is
// first stamped with en's tally (en must be the enricher that fed this
// group), and its result carries paging when the group tracks pages.
func (g *Group) Result(m MemberSim, en *trace.Enricher, kind LayoutKind) MemberResult {
	if hs := m.Hier; hs != nil {
		return MemberResult{Hier: &HierarchyResult{Layout: kind, Stats: hs.Stats(), Attribution: hs.Attribution().Stats()}}
	}
	cs := m.Cache
	cs.SetTally(en.Counter.Refs(), en.Counter.CategoryRefs, en.ObjRefs)
	res := &EvalResult{
		Layout:      kind,
		Stats:       cs.Stats(),
		Counter:     en.Counter,
		Objects:     en.Counter.Objects,
		Attribution: cs.Attribution().Stats(),
		AllocStats:  g.lane.Stats(),
	}
	res.ObjRefs, res.ObjMisses = cs.ObjectStats()
	if g.Pages != nil {
		res.TotalPages = g.Pages.TotalPages()
		res.WorkingSet = g.Pages.WorkingSet()
	}
	return MemberResult{Eval: res}
}
