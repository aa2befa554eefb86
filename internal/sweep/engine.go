package sweep

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addrspace"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/placement"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// batchSize is how many events one broadcast batch carries, enriched
// into at most as many records (runs of accesses fold).
// Large enough that per-batch synchronization (one channel send per
// worker, one atomic decrement per worker) is noise against the
// simulation work; small enough that the in-flight window stays cheap.
const batchSize = 4096

// streamDepth is the per-worker batch-channel depth: how far the shared
// decoder may run ahead of the slowest evaluator before backpressure.
const streamDepth = 8

// Request describes one sweep: a workload's stored trace replayed
// through every cell of a grid. Train profiles, test evaluates —
// the paper's train/test discipline, per cell.
type Request struct {
	Workload workload.Workload
	Train    workload.Input
	Test     workload.Input
	Grid     Grid

	// Options is the base configuration cells derive theirs from (via
	// Cell.Options). Options.Parallelism bounds the preparation fan-out.
	Options sim.Options

	// Trace selects the trace source: an enabled config replays from the
	// shared store (recording on first contact unless RequireRecorded);
	// a disabled one records both inputs into memory once.
	Trace sim.TraceConfig

	// Context, when non-nil, cancels a run in flight: the engines check
	// it at prep-stage boundaries and between broadcast batches of the
	// shared replays (train and test), so a cancelled sweep stops within
	// one batch rather than running the full grid to completion (what lets
	// ccdpd's shutdown drain and DELETE stay deadline-bounded for sweep
	// jobs).
	Context context.Context

	// OnProgress, when non-nil, observes sweep execution at its natural
	// boundaries: layout groups as their layouts are carved during prep,
	// broadcast batches as the shared replay streams, and cells as their
	// results land. Calls are serialized and, within one run (a RunShared
	// or RunIndependent call), each snapshot's counters are >= the
	// previous one's, so a consumer can fan the stream out without
	// reordering; a later run on the same Prep starts them from zero. The
	// callback runs on engine goroutines and must not block; it never
	// observes or influences simulation state, so results are
	// byte-identical with or without it.
	OnProgress func(Progress)
}

// Progress is one point-in-time snapshot of a sweep run's execution,
// emitted through Request.OnProgress. Its counters are per run: each run
// on a Prep resets them in its first snapshot.
type Progress struct {
	// Phase is "prep" while profiles/placements/layouts are built and
	// "replay" once events stream through the simulators.
	Phase string
	// GroupsDone counts layouts carved; Groups is the number to carve,
	// one per group key. Identical carved layouts merge, so Result.Groups
	// (the groups replayed) can be smaller.
	GroupsDone int
	Groups     int
	// CellsDone counts grid cells with results collected out of
	// CellsTotal. On the shared engine cells complete together after the
	// broadcast replay drains; on the independent engine they complete
	// one by one.
	CellsDone  int
	CellsTotal int
	// Batches and Events count broadcast batches and decoded trace
	// events through the shared replay (zero on the independent path).
	Batches uint64
	Events  uint64
}

// Prep is a sweep with its grid expanded and its traces pinned. Profiles
// and placements are *not* materialized here: the shared engine builds
// them just-in-time inside RunShared (one broadcast profiling pass, then
// per-profile placement batches released as their layouts are carved),
// and the independent oracle materializes the full set inside its own
// timed run via materialize(). The same Prep feeds both execution paths,
// so a differential run compares simulation engines, not preparation
// inputs.
type Prep struct {
	req       Request
	heapPlace bool
	cells     []Cell
	cellOpts  []sim.Options

	// prs/pms are the materialized per-cell prep artifacts; nil until
	// materialize() runs (the independent path and direct-eval tests).
	materialized bool
	prs          []*sim.ProfileResult // per cell; nil unless the layout needs one
	pms          []*placement.Map     // per cell; nil unless the layout needs one

	ts         *sim.TraceStore
	trainTrace []byte // in-memory traces when the store is disabled
	testTrace  []byte

	// progMu serializes OnProgress emissions (held through the callback,
	// so downstream fan-out sees snapshots in monotone order); prog is
	// the cumulative state the emissions mutate.
	progMu sync.Mutex
	prog   Progress
}

// progress applies mutate to the cumulative progress state and emits the
// resulting snapshot, serialized under progMu. No-op without a callback.
func (p *Prep) progress(mutate func(*Progress)) {
	if p.req.OnProgress == nil {
		return
	}
	p.progMu.Lock()
	defer p.progMu.Unlock()
	mutate(&p.prog)
	p.req.OnProgress(p.prog)
}

// CellResult pairs a cell with its evaluation; exactly one of Eval and
// Hier is set, matching Cell.L2.
type CellResult struct {
	Cell Cell
	sim.MemberResult
}

// MissRatePct is the cell's headline miss rate: the L1 miss rate for
// single-level cells, the global (per-reference) L2 miss rate for
// hierarchy cells — each level's misses per original access, so cells
// compete on what escapes the modeled capacity.
func (c *CellResult) MissRatePct() float64 {
	if c.Hier != nil {
		return c.Hier.Stats.L2GlobalMissRate()
	}
	return c.Eval.Stats.MissRate()
}

// Accesses returns the cell's reference count.
func (c *CellResult) Accesses() uint64 {
	if c.Hier != nil {
		return c.Hier.Stats.L1.Accesses
	}
	return c.Eval.Stats.Accesses
}

// Misses returns the misses behind MissRatePct.
func (c *CellResult) Misses() uint64 {
	if c.Hier != nil {
		return c.Hier.Stats.L2.Misses
	}
	return c.Eval.Stats.Misses
}

// Result is one sweep execution.
type Result struct {
	Workload string
	Input    string
	Cells    []CellResult

	WallNanos   int64
	DecodeNanos int64 // shared path only: time inside the test-trace decoder
	Batches     uint64
	Events      uint64
	Shared      bool // which engine produced this

	// PrepNanos is the time spent preparing profiles, placements, and
	// layouts — inside the run's wall clock on both engines (the shared
	// engine streams prep just-in-time; the independent one materializes
	// everything up front).
	PrepNanos int64
	// PeakPrepBytes is the peak resident prep estimate: the high-water
	// mark of live profile+placement bytes under the streamed schedule.
	PeakPrepBytes int64
	// PrepBytesTotal is what materialize-everything would hold resident:
	// the sum of every profile and placement estimate. PeakPrepBytes
	// strictly below this is the streaming win.
	PrepBytesTotal int64
	// ProfilesBroadcast counts distinct profile configs built by the
	// decode-once broadcast pass; ProfilesDeduped counts the profile
	// passes dedup avoided (CCDP cells demanding a profile, minus
	// distinct configs).
	ProfilesBroadcast int
	ProfilesDeduped   int
	// ProfileScans counts the profile builders prep ran: one per family
	// of profile configs that differ only in queue threshold, each
	// scanning its largest queue once for every threshold (shared path
	// only).
	ProfileScans int
	// Groups is the number of layout groups replayed: one per group key,
	// less carved CCDP layouts merged into an identical group. Each group
	// resolves every address once and fans it to its member simulators.
	Groups int
	// BlockSteps sums the groups' sim.Group.BlockSteps: the block
	// touches their trace-stripped members stepped (shared path only).
	BlockSteps uint64
	// Records counts the enriched records the replay broadcast, each a
	// single event or a folded run of accesses (shared path only).
	Records uint64
	// HeapLanes counts the heap allocators the replay ran: one per
	// distinct allocator key among the replayed groups (shared path only).
	HeapLanes int
	// HeapAllocs sums the lanes' allocator calls (Stats.Allocs).
	HeapAllocs uint64
}

// ConfigsPerSec is the sweep's throughput in grid cells per second.
func (r *Result) ConfigsPerSec() float64 {
	if r.WallNanos <= 0 {
		return 0
	}
	return float64(len(r.Cells)) / (float64(r.WallNanos) / 1e9)
}

// DecodeSharePct is the fraction of wall time the shared pass spent
// decoding the test trace (reader + emitter, measured as the gaps
// between broadcast callbacks). The whole point of the engine: this cost
// is paid once however many cells ride the broadcast.
func (r *Result) DecodeSharePct() float64 {
	if r.WallNanos <= 0 {
		return 0
	}
	return 100 * float64(r.DecodeNanos) / float64(r.WallNanos)
}

// PrepSharePct is the fraction of wall time spent in preparation.
func (r *Result) PrepSharePct() float64 {
	if r.WallNanos <= 0 {
		return 0
	}
	return 100 * float64(r.PrepNanos) / float64(r.WallNanos)
}

// Rows converts the result for the report renderers.
func (r *Result) Rows() []report.SweepRow {
	rows := make([]report.SweepRow, len(r.Cells))
	for i := range r.Cells {
		cr := &r.Cells[i]
		row := report.SweepRow{
			Size:        cr.Cell.Cache.Size,
			Block:       cr.Cell.Cache.BlockSize,
			Assoc:       cr.Cell.Cache.Assoc,
			Chunk:       cr.Cell.Chunk,
			Queue:       cr.Cell.Queue,
			Cutoff:      cr.Cell.Cutoff,
			Heap:        cr.Cell.Heap,
			Layout:      string(cr.Cell.Layout),
			Bytes:       cr.Cell.Bytes(),
			Accesses:    cr.Accesses(),
			Misses:      cr.Misses(),
			MissRatePct: cr.MissRatePct(),
		}
		if cr.Cell.L2 != nil {
			row.L2 = cr.Cell.L2.Short()
			row.TLB = cr.Cell.TLB
		}
		rows[i] = row
	}
	report.MarkPareto(rows)
	return rows
}

// NewPrep expands the grid, derives per-cell options, and pins the trace
// source (recording in-memory traces when the store is disabled). It is
// deliberately cheap: profiling and placement happen inside the runs,
// where their cost belongs to the engine being measured.
func NewPrep(req Request) (*Prep, error) {
	if req.Workload == nil {
		return nil, fmt.Errorf("sweep: nil workload")
	}
	cells, err := req.Grid.Cells()
	if err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("sweep: empty grid")
	}
	p := &Prep{req: req, heapPlace: req.Workload.HeapPlacement(), cells: cells}
	p.prog.CellsTotal = len(cells)

	if req.Trace.Enabled() {
		p.ts = sim.NewTraceStore(req.Trace, req.Workload, req.Options.Metrics)
	} else {
		recOpts := req.Options
		recOpts.Metrics = nil
		var buf bytes.Buffer
		if err := sim.RecordTrace(req.Workload, req.Train, &buf, recOpts); err != nil {
			return nil, fmt.Errorf("sweep: recording train trace: %w", err)
		}
		p.trainTrace = buf.Bytes()
		buf = bytes.Buffer{}
		if err := sim.RecordTrace(req.Workload, req.Test, &buf, recOpts); err != nil {
			return nil, fmt.Errorf("sweep: recording test trace: %w", err)
		}
		p.testTrace = buf.Bytes()
	}

	p.cellOpts = make([]sim.Options, len(cells))
	for i, c := range cells {
		p.cellOpts[i] = c.Options(req.Options)
	}
	return p, nil
}

// materialize runs every profiling and placement pass the cells need,
// deduplicated, and pins them per cell — the pre-streaming prep the
// independent oracle (and direct per-cell eval tests) consume. Cells
// sharing an effective (chunk, queue, cutoff) share one profile of the
// train input, and CCDP cells sharing (profile, L1 geometry) share one
// placement. Passes fan out across req.Options.Parallelism workers; each
// pass runs with inner parallelism 1 so preparation is reproducible at
// any worker count.
func (p *Prep) materialize() error {
	if p.materialized {
		return nil
	}
	req := p.req
	cells := p.cells
	mc := req.Options.Metrics
	span := mc.Start(metrics.StageSweepPrep)
	defer span.Stop()

	// Deduplicate and run the profile passes (CCDP cells only).
	var profKeys []string
	profIdx := map[string]int{}
	for i, c := range cells {
		if c.Layout != sim.LayoutCCDP {
			continue
		}
		k := c.profileKey(req.Options)
		if _, ok := profIdx[k]; !ok {
			profIdx[k] = i
			profKeys = append(profKeys, k)
		}
	}
	profTasks := make([]exec.Task[*sim.ProfileResult], len(profKeys))
	for ti, k := range profKeys {
		opts := p.cellOpts[profIdx[k]]
		opts.Parallelism = 1
		profTasks[ti] = func(ctx context.Context, wmc *metrics.Collector) (*sim.ProfileResult, error) {
			opts := opts
			opts.Metrics = wmc
			src, err := p.open(req.Train, opts)
			if err != nil {
				return nil, err
			}
			return sim.ProfileFrom(src, opts)
		}
	}
	profResults, err := exec.Map(p.ctx(), req.Options.Parallelism, mc, profTasks)
	if err != nil {
		return fmt.Errorf("sweep: profiling: %w", err)
	}
	profiles := map[string]*sim.ProfileResult{}
	for ti, k := range profKeys {
		profiles[k] = profResults[ti]
	}

	// Deduplicate and run the placement passes.
	var placeKeys []string
	placeIdx := map[string]int{}
	for i, c := range cells {
		if c.Layout != sim.LayoutCCDP {
			continue
		}
		k := c.placementKey(req.Options)
		if _, ok := placeIdx[k]; !ok {
			placeIdx[k] = i
			placeKeys = append(placeKeys, k)
		}
	}
	placeTasks := make([]exec.Task[*placement.Map], len(placeKeys))
	for ti, k := range placeKeys {
		i := placeIdx[k]
		opts := p.cellOpts[i]
		pr := profiles[cells[i].profileKey(req.Options)]
		placeTasks[ti] = func(ctx context.Context, wmc *metrics.Collector) (*placement.Map, error) {
			opts := opts
			opts.Metrics = wmc
			return sim.Place(req.Workload, pr, opts)
		}
	}
	placeResults, err := exec.Map(p.ctx(), req.Options.Parallelism, mc, placeTasks)
	if err != nil {
		return fmt.Errorf("sweep: placement: %w", err)
	}
	placements := map[string]*placement.Map{}
	for ti, k := range placeKeys {
		placements[k] = placeResults[ti]
	}

	p.prs = make([]*sim.ProfileResult, len(cells))
	p.pms = make([]*placement.Map, len(cells))
	for i, c := range cells {
		if c.Layout != sim.LayoutCCDP {
			continue
		}
		p.prs[i] = profiles[c.profileKey(req.Options)]
		p.pms[i] = placements[c.placementKey(req.Options)]
	}
	p.materialized = true
	return nil
}

// Cells returns the expanded grid.
func (p *Prep) Cells() []Cell { return p.cells }

// ctx returns the request's cancellation context (Background when unset).
func (p *Prep) ctx() context.Context {
	if p.req.Context != nil {
		return p.req.Context
	}
	return context.Background()
}

// open returns a replay stream for the input's trace.
func (p *Prep) open(in workload.Input, opts sim.Options) (sim.EventStream, error) {
	if p.ts != nil {
		return p.ts.Open(in, opts)
	}
	buf := p.testTrace
	if in.Label == p.req.Train.Label {
		buf = p.trainTrace
	}
	return sim.OpenReplay(bytes.NewReader(buf), opts)
}

// batch is one broadcast unit: a run of records, its heap operations,
// each heap lane's addresses for its Allocs, and the refcount the last
// worker uses to recycle it.
type batch struct {
	recs    []trace.Rec
	ops     []sim.HeapOp
	heap    [][]addrspace.Addr // per lane: the k-th Alloc's address
	pending atomic.Int32
}

// broadcast is the decoder side of a shared replay, for the train trace
// (one profile builder per worker) and the test trace (layout groups
// spread over the workers) alike: a trace handler that enriches the stream
// once, runs every heap lane over each full record batch, and broadcasts
// the batch to every worker. Its enricher holds the replay's one reference
// tally. It also measures decode time as the gaps between its callbacks —
// time spent in the reader and emitter, not in the workers.
type broadcast struct {
	en      *trace.Enricher
	clock   sim.Clock
	lanes   []*sim.Lane
	st      *exec.Stream[*batch]
	fl      *exec.FreeList[*batch]
	cur     *batch
	workers int32
	ctx     context.Context

	// aborted flips when ctx is cancelled mid-replay: enrichment and
	// broadcasting stop so the rest of the decode drains as a no-op
	// (Drive has no abort seam), and run reports the context error.
	aborted bool

	batches     uint64
	events      uint64
	records     uint64
	inBatch     int // events enriched into cur
	decodeNanos int64
	lastExit    time.Time

	// onBatch, when non-nil, observes each broadcast batch boundary with
	// the cumulative batch and event counts.
	onBatch func(batches, events uint64)
}

// newBroadcast opens a broadcast over table to workers workers, with
// lanes resolving heap addresses; handle runs on worker w's goroutine for
// every batch, in stream order.
func newBroadcast(ctx context.Context, table *object.Table, workers int, lanes []*sim.Lane, handle func(w int, b *batch)) *broadcast {
	fl := exec.NewFreeList(streamDepth+4, func() *batch {
		return &batch{recs: make([]trace.Rec, 0, batchSize), heap: make([][]addrspace.Addr, len(lanes))}
	})
	st := exec.NewStream(workers, streamDepth, func(w int, b *batch) {
		handle(w, b)
		if b.pending.Add(-1) == 0 {
			b.recs = b.recs[:0]
			fl.Put(b)
		}
	})
	return &broadcast{
		en:       trace.NewEnricher(table, nil),
		lanes:    lanes,
		st:       st,
		fl:       fl,
		cur:      fl.Get(),
		workers:  int32(workers),
		ctx:      ctx,
		lastExit: time.Now(),
	}
}

func (c *broadcast) enter() {
	c.decodeNanos += time.Since(c.lastExit).Nanoseconds()
}

func (c *broadcast) exit() { c.lastExit = time.Now() }

func (c *broadcast) HandleEvent(ev trace.Event) {
	c.HandleBatch([]trace.Event{ev})
}

func (c *broadcast) HandleBatch(evs []trace.Event) {
	c.enter()
	for len(evs) > 0 && !c.aborted {
		n := min(len(evs), batchSize-c.inBatch)
		c.cur.recs = c.en.Append(c.cur.recs, evs[:n]...)
		c.events += uint64(n)
		c.inBatch += n
		evs = evs[n:]
		if c.inBatch == batchSize {
			c.flush()
		}
	}
	c.exit()
}

func (c *broadcast) flush() {
	if c.aborted || len(c.cur.recs) == 0 {
		return
	}
	c.inBatch = 0
	if c.ctx.Err() != nil {
		c.aborted = true
		c.cur.recs = c.cur.recs[:0]
		return
	}
	if len(c.lanes) > 0 {
		c.cur.ops = c.clock.Stamp(c.cur.recs, c.cur.ops[:0])
		for i, l := range c.lanes {
			c.cur.heap[i] = l.Resolve(c.cur.recs, c.cur.ops, c.cur.heap[i][:0])
		}
	}
	c.cur.pending.Store(c.workers)
	c.records += uint64(len(c.cur.recs))
	c.st.Send(c.cur)
	c.batches++
	c.cur = c.fl.Get()
	if c.onBatch != nil {
		c.onBatch(c.batches, c.events)
	}
}

// run drives src through the broadcast and waits for every worker to
// drain. A cancelled request fails the replay with the context error.
func (c *broadcast) run(src sim.EventStream) error {
	// Closed on every exit, a panic on this goroutine included, so the
	// workers always drain and exit.
	defer c.st.Close()
	err := src.Drive(c)
	c.flush()
	if err == nil && c.aborted {
		err = fmt.Errorf("replay cancelled: %w", c.ctx.Err())
	}
	return err
}

// profileFamilies splits the profile keys into families, in
// first-appearance order: keys whose configs differ only in queue
// threshold, at most profile.MaxFamily each. One builder serves a family.
func profileFamilies(keys []string, optsFor map[string]sim.Options) [][]string {
	var fams [][]string
	open := map[profile.Config]int{}
	for _, k := range keys {
		c := optsFor[k].Profile
		c.QueueThreshold = 0
		i, ok := open[c]
		if !ok || len(fams[i]) == profile.MaxFamily {
			i = len(fams)
			open[c] = i
			fams = append(fams, nil)
		}
		fams[i] = append(fams[i], k)
	}
	return fams
}

// broadcastProfiles builds every demanded profile config in one decode of
// the train trace: one profile.Sharded builder per family of configs that
// differ only in queue threshold (each with its replica-queue
// decomposition scaled to the worker budget) consumes the broadcast record
// stream concurrently, scanning its largest queue once for every
// threshold. It returns the profiles and the number of builders. Output
// is byte-identical to independent ProfileFrom passes — both feed the
// builders the same records, and batch boundaries never change a profile.
func (p *Prep) broadcastProfiles(keys []string, optsFor map[string]sim.Options, parallel int) (map[string]*sim.ProfileResult, int, error) {
	out := make(map[string]*sim.ProfileResult, len(keys))
	if len(keys) == 0 {
		return out, 0, nil
	}
	src, err := p.open(p.req.Train, p.req.Options)
	if err != nil {
		return nil, 0, fmt.Errorf("sweep: profiling: %w", err)
	}
	defer src.Close()
	table := src.Objects()

	// The decoder feeding the builders takes one of the parallel CPUs,
	// and the rest are split among the families: at -parallel 2 one
	// family runs on one queue, since a replica queue per shard would
	// cost more upkeep than its share of the scans saves.
	fams := profileFamilies(keys, optsFor)
	inner := max((parallel-1)/len(fams), 1)
	builders := make([]*profile.Sharded, 0, len(fams))
	// Every exit releases the builders' shard workers: after FinishAll
	// this is a no-op, on an error or a panic it lets them exit.
	defer func() {
		for _, b := range builders {
			b.Close()
		}
	}()
	for _, fam := range fams {
		cfgs := make([]profile.Config, len(fam))
		top := 0 // the largest threshold's geometry shards the family
		for j, k := range fam {
			cfg := optsFor[k].Profile
			cfg.Metrics = p.req.Options.Metrics
			if src.Replayed() && cfg.StreamDepth == 0 {
				cfg.StreamDepth = sim.ReplayStreamDepth
			}
			cfgs[j] = cfg
			if cfg.QueueThreshold > cfgs[top].QueueThreshold {
				top = j
			}
		}
		b, err := profile.NewFamily(cfgs, table, inner, optsFor[fam[top]].Cache.Size)
		if err != nil {
			return nil, 0, fmt.Errorf("sweep: profile %s: %w", fam[0], err)
		}
		builders = append(builders, b)
	}

	bc := newBroadcast(p.ctx(), table, len(fams), nil, func(w int, b *batch) {
		builders[w].HandleRecs(b.recs)
	})
	driveErr := bc.run(src)
	for i, fam := range fams {
		// Finish even on error so the builders drain.
		profs := builders[i].FinishAll()
		if driveErr == nil {
			for j, k := range fam {
				out[k] = &sim.ProfileResult{Profile: profs[j], Counter: bc.en.Counter, Objects: table}
			}
		}
	}
	if driveErr != nil {
		return nil, 0, fmt.Errorf("sweep: profiling: %w", driveErr)
	}
	return out, len(fams), nil
}

// memberSim is one cell's private simulator inside a layout group.
type memberSim struct {
	sim.MemberSim
	g *layoutGroup
}

// layoutGroup owns one effective layout: a sim.Group — the resolved
// address space (static addresses, heap allocator, clock) shared by every
// member cell — plus the prep wiring that carves it. The identity of the
// grouping key (layout kind, placement, allocator variant, seed) makes
// every member byte-identical to an independent sim.Run of that member
// alone, which runs the same resolver.
type layoutGroup struct {
	sim.Group

	// prep wiring for CCDP groups; zero for natural/random groups.
	profKey  string
	placeKey string
	opts     sim.Options
	// heap is what the group's allocator depends on; into is the
	// identical carved group this one's members moved to; lane indexes
	// the replay's heap lanes.
	heap heapID
	into *layoutGroup
	lane int
}

// heapID is all a group's heap allocator depends on: the base fit, or the
// custom allocator's placement period, bin count and heap plans.
type heapID struct {
	fit    string
	period int64
	bins   int
	plans  map[uint64]placement.HeapPlan
}

// customHeap is the heapID of heapsim.NewCustom(pm).
func customHeap(pm *placement.Map) heapID {
	return heapID{fit: "custom", period: pm.Period(), bins: pm.NumBins, plans: pm.HeapPlans}
}

// same reports whether h and o are one allocator's inputs.
func (h heapID) same(o heapID) bool {
	return h.fit == o.fit && h.period == o.period && h.bins == o.bins && maps.Equal(h.plans, o.plans)
}

// laneKey drops what the allocator never reads: the custom allocator
// reads its period only to start a block at a plan's preferred cache
// offset, so without such a plan every period hands out the same
// addresses and Stats.
func (h heapID) laneKey() heapID {
	for _, pl := range h.plans {
		if pl.PrefOffset != placement.NoPreference {
			return h
		}
	}
	h.period = 0
	return h
}

// sameLayout reports whether two carved CCDP groups resolve every event
// to the same address. Placements for geometries of equal sets × line
// size often coincide, since the placer packs one way's period.
func sameLayout(a, b *layoutGroup) bool {
	return a.heap.same(b.heap) && a.SameStatics(&b.Group)
}

// shareLanes gives the replayed groups one heap lane per distinct
// allocator key: the first group with a key keeps its own lane, and the
// later ones share it.
func shareLanes(groups []*layoutGroup) []*sim.Lane {
	var keys []heapID
	var lanes []*sim.Lane
	for _, g := range groups {
		k := g.heap.laneKey()
		g.lane = slices.IndexFunc(keys, k.same)
		if g.lane < 0 {
			g.lane = len(lanes)
			keys = append(keys, k)
			lanes = append(lanes, g.Lane())
			continue
		}
		g.SetLane(lanes[g.lane])
	}
	return lanes
}

// fitName normalizes the heap-fit axis value for group keying.
func fitName(f string) string {
	if f == "" {
		return "first"
	}
	return f
}

// groupKey names a cell's effective layout: cells with equal keys resolve
// every event to the same address through the same allocator state, and
// therefore share one layoutGroup. Natural layouts differ only by
// heap-fit variant; the random layout is one group (global seed, seeded
// allocator); CCDP layouts split by placement (which embeds the profile
// and L1 geometry) and allocator variant.
func (p *Prep) groupKey(c Cell) string {
	switch c.Layout {
	case sim.LayoutNatural:
		return "natural|" + fitName(c.Heap)
	case sim.LayoutRandom:
		return "random"
	default:
		if p.heapPlace {
			return "ccdp|" + c.placementKey(p.req.Options) + "|custom"
		}
		return "ccdp|" + c.placementKey(p.req.Options) + "|" + fitName(c.Heap)
	}
}

// prepStats is the streamed-prep accounting RunShared reports.
type prepStats struct {
	nanos     int64
	cur       int64
	peak      int64
	total     int64
	broadcast int
	deduped   int
	scans     int
}

func (a *prepStats) grow(n int64) {
	a.cur += n
	a.total += n
	if a.cur > a.peak {
		a.peak = a.cur
	}
}

func (a *prepStats) release(n int64) { a.cur -= n }

// buildGroups resolves the cells into layout groups with member
// simulators attached, then streams the CCDP prep: one broadcast
// profiling pass builds every profile config concurrently, placements are
// batched per profile, each profile is released as soon as its last
// dependent group's layout is carved, and non-retained placements are
// released behind their groups (CCDP-with-heap-placement groups keep the
// placement map alive inside the custom allocator). Peak resident prep
// bytes are the high-water mark of that schedule. A carved CCDP layout
// identical to an earlier one (sameLayout) joins that one's group.
func (p *Prep) buildGroups(table *object.Table, parallel int) ([]*layoutGroup, []*memberSim, *prepStats, error) {
	mc := p.req.Options.Metrics
	acct := &prepStats{}
	prepStart := time.Now()
	span := mc.Start(metrics.StageSweepPrep)
	defer span.Stop()
	defer func() { acct.nanos = time.Since(prepStart).Nanoseconds() }()

	var groups []*layoutGroup
	byKey := map[string]*layoutGroup{}
	memberOf := make([]*memberSim, len(p.cells))
	for i, cell := range p.cells {
		opts := p.cellOpts[i]
		key := p.groupKey(cell)
		g := byKey[key]
		if g == nil {
			g = &layoutGroup{opts: opts}
			if cell.Layout == sim.LayoutCCDP {
				g.profKey = cell.profileKey(p.req.Options)
				g.placeKey = cell.placementKey(p.req.Options)
			} else {
				lay, alloc, err := sim.BuildLayout(table, cell.Layout, p.heapPlace, nil, nil, opts)
				if err != nil {
					return nil, nil, nil, fmt.Errorf("sweep: cell %d (%s): %w", i, cell.Label(), err)
				}
				g.SetLayout(table, lay, alloc)
				g.heap = heapID{fit: fitName(cell.Heap)}
				if cell.Layout == sim.LayoutRandom {
					g.heap = heapID{fit: "random"}
				}
			}
			byKey[key] = g
			groups = append(groups, g)
		}
		ms, err := g.Add(cell.member(), opts, table.Len())
		if err != nil {
			return nil, nil, nil, fmt.Errorf("sweep: cell %d (%s): %w", i, cell.Label(), err)
		}
		memberOf[i] = &memberSim{MemberSim: ms, g: g}
	}

	// Non-CCDP groups carved their layouts inline above; CCDP groups
	// carve below as their placements land.
	carved := 0
	for _, g := range groups {
		if g.profKey == "" {
			carved++
		}
	}
	p.progress(func(pr *Progress) {
		*pr = Progress{Phase: "prep", Groups: len(groups), GroupsDone: carved, CellsTotal: pr.CellsTotal}
	})

	// Streamed CCDP prep: profiles first (one decode, all configs), then
	// placements per profile in first-appearance order.
	var profKeys []string
	profGroups := map[string][]*layoutGroup{}
	optsFor := map[string]sim.Options{}
	demand := 0
	for _, g := range groups {
		if g.profKey == "" {
			continue
		}
		demand += g.Size()
		if _, ok := profGroups[g.profKey]; !ok {
			profKeys = append(profKeys, g.profKey)
			optsFor[g.profKey] = g.opts
		}
		profGroups[g.profKey] = append(profGroups[g.profKey], g)
	}
	var distinct []*layoutGroup // carved CCDP groups not merged away
	acct.broadcast = len(profKeys)
	acct.deduped = demand - len(profKeys)

	profiles, scans, err := p.broadcastProfiles(profKeys, optsFor, parallel)
	acct.scans = scans
	if err != nil {
		return nil, nil, nil, err
	}
	profSize := map[string]int64{}
	for k, pr := range profiles {
		profSize[k] = pr.Profile.SizeEstimate()
		acct.grow(profSize[k])
	}

	for _, pk := range profKeys {
		if err := p.ctx().Err(); err != nil {
			return nil, nil, nil, fmt.Errorf("sweep: prep cancelled: %w", err)
		}
		gs := profGroups[pk]
		pr := profiles[pk]

		var placeKeys []string
		placeGroups := map[string][]*layoutGroup{}
		for _, g := range gs {
			if _, ok := placeGroups[g.placeKey]; !ok {
				placeKeys = append(placeKeys, g.placeKey)
			}
			placeGroups[g.placeKey] = append(placeGroups[g.placeKey], g)
		}
		placeTasks := make([]exec.Task[*placement.Map], len(placeKeys))
		for ti, k := range placeKeys {
			opts := placeGroups[k][0].opts
			placeTasks[ti] = func(ctx context.Context, wmc *metrics.Collector) (*placement.Map, error) {
				opts := opts
				opts.Metrics = wmc
				return sim.Place(p.req.Workload, pr, opts)
			}
		}
		placeResults, err := exec.Map(p.ctx(), parallel, mc, placeTasks)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("sweep: placement: %w", err)
		}
		for ti, k := range placeKeys {
			pm := placeResults[ti]
			sz := pm.SizeEstimate()
			acct.grow(sz)
			for _, g := range placeGroups[k] {
				lay, alloc, err := sim.BuildLayout(table, sim.LayoutCCDP, p.heapPlace, pr, pm, g.opts)
				if err != nil {
					return nil, nil, nil, fmt.Errorf("sweep: layout %s: %w", k, err)
				}
				g.SetLayout(table, lay, alloc)
				g.heap = heapID{fit: fitName(g.opts.HeapFit)}
				if p.heapPlace {
					g.heap = customHeap(pm)
				}
				for _, d := range distinct {
					if sameLayout(d, g) {
						d.Sims = append(d.Sims, g.Sims...)
						d.Hiers = append(d.Hiers, g.Hiers...)
						g.into = d
						break
					}
				}
				if g.into == nil {
					distinct = append(distinct, g)
				}
				p.progress(func(pr *Progress) { pr.GroupsDone++ })
			}
			if !p.heapPlace {
				// The groups hold resolved addresses and a default
				// allocator; nothing references the placement map anymore.
				acct.release(sz)
			}
		}
		// Every dependent layout is carved: the profile retires.
		acct.release(profSize[pk])
	}
	for _, m := range memberOf {
		if m.g.into != nil {
			m.g = m.g.into
		}
	}
	replayed := groups[:0]
	for _, g := range groups {
		if g.into == nil {
			replayed = append(replayed, g)
		}
	}
	return replayed, memberOf, acct, nil
}

// assignGroups splits group indices across workers by longest processing
// time first: the heaviest group (ties to the lower index) goes onto the
// least-loaded worker (ties to the lower worker). Each worker's list is
// ascending, so a single worker replays the groups in their build order.
// Weights are skewed in practice: every natural cell of a sweep shares
// one group, while each CCDP cell carves its own placement.
func assignGroups(weights []int, workers int) [][]int {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	plan := make([][]int, workers)
	load := make([]int, workers)
	for _, g := range order {
		w := 0
		for i := 1; i < workers; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		plan[w] = append(plan[w], g)
		load[w] += weights[g]
	}
	for _, p := range plan {
		sort.Ints(p)
	}
	return plan
}

// groupWeights is each group's replay cost for assignGroups: one address
// resolution per record plus one simulator step per member.
func groupWeights(groups []*layoutGroup) []int {
	weights := make([]int, len(groups))
	for i, g := range groups {
		weights[i] = 1 + g.Size()
	}
	return weights
}

// RunShared executes the sweep on the decode-once/eval-many engine: prep
// streams just-in-time (profiles broadcast off one train decode,
// placements batched per profile and released behind their layouts), then
// one replay of the test trace feeds every layout group. parallel bounds
// the worker count (clamped to the group count). assignGroups balances
// the groups across workers by cost; each group is replayed by exactly
// one worker, in batch order, and groups share no state, so results are
// identical at any parallelism.
func (p *Prep) RunShared(parallel int) (*Result, error) {
	mc := p.req.Options.Metrics
	span := mc.Start(metrics.StageSweep)
	defer span.Stop()
	start := time.Now()
	if parallel < 1 {
		parallel = 1
	}
	ctx := p.ctx()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep: cancelled: %w", err)
	}

	src, err := p.open(p.req.Test, p.req.Options)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	table := src.Objects()

	// Layouts and static addresses depend only on the static objects the
	// trace header declares, exactly as sim.Run builds them before the
	// first event.
	groups, memberOf, acct, err := p.buildGroups(table, parallel)
	if err != nil {
		return nil, err
	}

	workers := parallel
	if workers > len(groups) {
		workers = len(groups)
	}
	plan := assignGroups(groupWeights(groups), workers)
	lanes := shareLanes(groups)

	// The enricher's tally starts at the size buildGroups pre-sized every
	// member to: no event has reached the table since.
	bc := newBroadcast(ctx, table, workers, lanes, func(w int, b *batch) {
		for _, i := range plan[w] {
			g := groups[i]
			g.Replay(b.recs, b.ops, b.heap[g.lane])
		}
	})
	if p.req.OnProgress != nil {
		bc.onBatch = func(batches, events uint64) {
			p.progress(func(pr *Progress) {
				pr.Phase = "replay"
				pr.Batches = batches
				pr.Events = events
			})
		}
	}
	if err := bc.run(src); err != nil {
		return nil, fmt.Errorf("sweep: %s %w", p.req.Test.Label, err)
	}

	res := &Result{
		Workload:          p.req.Workload.Name(),
		Input:             p.req.Test.Label,
		Cells:             make([]CellResult, len(p.cells)),
		WallNanos:         time.Since(start).Nanoseconds(),
		DecodeNanos:       bc.decodeNanos,
		Batches:           bc.batches,
		Events:            bc.events,
		Records:           bc.records,
		Shared:            true,
		PrepNanos:         acct.nanos,
		PeakPrepBytes:     acct.peak,
		PrepBytesTotal:    acct.total,
		ProfilesBroadcast: acct.broadcast,
		ProfilesDeduped:   acct.deduped,
		ProfileScans:      acct.scans,
		Groups:            len(groups),
		HeapLanes:         len(lanes),
	}
	for _, l := range lanes {
		res.HeapAllocs += l.Stats().Allocs
	}
	for _, g := range groups {
		res.BlockSteps += g.BlockSteps
	}
	for i, cell := range p.cells {
		m := memberOf[i]
		res.Cells[i] = CellResult{Cell: cell, MemberResult: m.g.Result(m.MemberSim, bc.en, cell.Layout)}
		p.progress(func(pr *Progress) {
			pr.Phase = "replay"
			pr.CellsDone = i + 1
		})
	}
	mc.Add(metrics.SweepCells, uint64(len(p.cells)))
	mc.Add(metrics.SweepBatches, bc.batches)
	mc.Add(metrics.SweepLayoutGroups, uint64(len(groups)))
	mc.Add(metrics.SweepProfilesBroadcast, uint64(acct.broadcast))
	mc.Add(metrics.SweepProfilesDeduped, uint64(acct.deduped))
	mc.Add(metrics.SweepPeakPrepBytes, uint64(acct.peak))
	return res, nil
}

// RunIndependent executes the same sweep the pre-engine way: prep is
// materialized in full (every profile and placement resident at once),
// then every cell replays and decodes the trace for itself (a sim.Run of
// one group of one member over its own stream), fanned across parallel
// workers. This is the baseline the shared engine's speedup is measured
// against — prep included on both sides — and the oracle its results are
// diffed against.
func (p *Prep) RunIndependent(parallel int) (*Result, error) {
	mc := p.req.Options.Metrics
	start := time.Now()
	p.progress(func(pr *Progress) { *pr = Progress{Phase: "prep", CellsTotal: pr.CellsTotal} })
	if err := p.materialize(); err != nil {
		return nil, err
	}
	prepNanos := time.Since(start).Nanoseconds()
	p.progress(func(pr *Progress) { pr.Phase = "replay" })
	tasks := make([]exec.Task[CellResult], len(p.cells))
	for i := range p.cells {
		i := i
		cell := p.cells[i]
		tasks[i] = func(ctx context.Context, wmc *metrics.Collector) (CellResult, error) {
			opts := p.cellOpts[i]
			opts.Metrics = wmc
			src, err := p.open(p.req.Test, opts)
			if err != nil {
				return CellResult{}, err
			}
			out, err := sim.Run(src, sim.Pass{
				HeapPlace: p.heapPlace, Profile: p.prs[i], Placement: p.pms[i],
				Groups: []sim.GroupSpec{{Layout: cell.Layout, Members: []sim.Member{cell.member()}}},
			}, opts)
			if err != nil {
				return CellResult{}, err
			}
			p.progress(func(pr *Progress) { pr.CellsDone++ })
			return CellResult{Cell: cell, MemberResult: out[0][0]}, nil
		}
	}
	cells, err := exec.Map(p.ctx(), parallel, mc, tasks)
	if err != nil {
		return nil, err
	}
	return &Result{
		Workload:  p.req.Workload.Name(),
		Input:     p.req.Test.Label,
		Cells:     cells,
		WallNanos: time.Since(start).Nanoseconds(),
		PrepNanos: prepNanos,
	}, nil
}

// DiffResults compares two runs of the same grid cell by cell through
// the persisted result encoding and reports the first mismatch. Nil
// error means every cell is byte-identical.
func DiffResults(a, b *Result) error {
	if len(a.Cells) != len(b.Cells) {
		return fmt.Errorf("sweep: cell count mismatch: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		ca, cb := &a.Cells[i], &b.Cells[i]
		var ea, eb []byte
		if ca.Hier != nil || cb.Hier != nil {
			ea = sim.EncodeHierarchyResult(ca.Hier)
			eb = sim.EncodeHierarchyResult(cb.Hier)
		} else {
			ea = sim.EncodeEvalResult(ca.Eval)
			eb = sim.EncodeEvalResult(cb.Eval)
		}
		if !bytes.Equal(ea, eb) {
			return fmt.Errorf("sweep: cell %d (%s) diverged:\n--- a ---\n%s--- b ---\n%s",
				i, ca.Cell.Label(), ea, eb)
		}
	}
	return nil
}
