// Package sim is the end-to-end driver: it materialises a workload's
// declared objects, runs the profiling pass, computes a placement, and
// replays the workload under any layout/allocator combination through the
// cache simulator — the same profile -> optimize -> re-simulate loop the
// paper built out of ATOM, the modified linker, and their cache simulator.
package sim

import (
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/heapsim"
	"repro/internal/hierarchy"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/placement"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/vmpage"
	"repro/internal/workload"
	"repro/internal/xorname"
)

// Options bundles the knobs of one experiment.
type Options struct {
	Cache     cache.Config
	Profile   profile.Config
	Placement placement.Config

	// Classify enables three-C miss classification (slower).
	Classify bool
	// TrackPages enables Table 5's page/working-set accounting.
	TrackPages bool
	// PageWindowFrac is the working-set window as a fraction of total
	// references (paper: 1%).
	PageWindowFrac float64
	// NameDepth is the XOR naming depth (paper: 4).
	NameDepth int
	// RandomSeed seeds the random-layout control.
	RandomSeed uint64

	// HeapFit selects the default heap allocator variant for passes that
	// do not use the CCDP custom allocator: "" or "first" is first-fit
	// (the historical behaviour), "temporal" is temporal-fit (reuse the
	// most recently touched fitting free chunk). It applies to natural
	// layouts and to CCDP layouts evaluated without heap placement; the
	// random layout keeps its seeded allocator and CCDP-with-heap-
	// placement keeps the placement-map allocator.
	HeapFit string

	// Parallelism bounds how many independent pipeline units run
	// concurrently: per-input evaluation passes inside core.Run, whole
	// workloads inside benchsuite, and the per-cache-set shard workers of
	// the profiling pass's TRG build. Values <= 1 run sequentially; 0 is
	// the conservative sequential default so existing callers are
	// unchanged. Results are bit-identical at any setting — every pass
	// is deterministic and shares only read-only state (see DESIGN.md,
	// "Concurrency model").
	Parallelism int

	// Metrics receives pipeline-wide instrumentation: trace event counts,
	// TRG construction statistics, stage durations, and simulator totals.
	// Nil disables collection; the hot paths then pay a single predictable
	// nil-check branch.
	Metrics *metrics.Collector

	// Attribution enables the simulator's miss-attribution mode on every
	// evaluation pass: per-cache-set access/miss/eviction counters and a
	// bounded top-K (victim, evictor) conflict-pair sketch, surfaced on
	// EvalResult.Attribution. Off by default; when off the simulator pays
	// one nil-check branch per hook and results are byte-identical (the
	// differential test in internal/cache holds it to that).
	Attribution bool
	// AttributionPairs caps the conflict-pair sketch (0 selects
	// cache.DefaultAttributionPairs).
	AttributionPairs int
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	c := cache.DefaultConfig
	return Options{
		Cache:          c,
		Profile:        profile.DefaultConfig(c.Size),
		Placement:      placement.Config{Cache: c, HeapPlacement: true, BinAffinityThreshold: 8},
		PageWindowFrac: 0.01,
		NameDepth:      xorname.DefaultDepth,
		RandomSeed:     0x5eed,
	}
}

// specDecls computes the natural-address declarations for a spec: the
// single source of truth for how the "compiler" lays objects out before
// any placement runs, shared by live runs and trace files.
func specDecls(spec workload.Spec) (globals, constants []trace.Decl) {
	textCursor := addrspace.TextBase
	for _, v := range spec.Constants {
		constants = append(constants, trace.Decl{Name: v.Name, Size: v.Size, Addr: textCursor})
		textCursor = addrspace.Align(textCursor+addrspace.Addr(v.Size), layout.GlobalAlign)
		// Real text segments interleave code between constant islands.
		textCursor += 96
	}
	globalCursor := addrspace.GlobalBase
	for _, v := range spec.Globals {
		globals = append(globals, trace.Decl{Name: v.Name, Size: v.Size, Addr: globalCursor})
		globalCursor = addrspace.Align(globalCursor+addrspace.Addr(v.Size), layout.GlobalAlign)
	}
	return globals, constants
}

// buildRun materialises a workload spec into a fresh object table, with
// natural addresses assigned in declaration order, and returns the Prog
// wiring for a run whose events flow to h, plus the emitter itself so
// drivers can Flush buffered events after the run.
func buildRun(w workload.Workload, in workload.Input, h trace.Handler, opts Options) (*object.Table, *workload.Prog, *trace.Emitter) {
	spec := w.Spec()
	gdecls, cdecls := specDecls(spec)
	objs := object.NewTable(spec.StackSize)

	consts := make([]object.ID, 0, len(cdecls))
	for _, d := range cdecls {
		consts = append(consts, objs.AddConstant(d.Name, d.Size, d.Addr))
	}
	globals := make([]object.ID, 0, len(gdecls))
	for _, d := range gdecls {
		id := objs.AddGlobal(d.Name, d.Size)
		objs.Get(id).NaturalAddr = d.Addr
		globals = append(globals, id)
	}

	em := trace.NewEmitter(objs, h)
	em.SetMetrics(opts.Metrics)
	prog := workload.NewProg(em, globals, consts, spec.StackSize, in.Seed, opts.NameDepth)
	return objs, prog, em
}

// ProfileResult is the output of the profiling pass.
type ProfileResult struct {
	Profile *profile.Profile
	Counter *trace.Counter
	Objects *object.Table
}

// profiler is the common face of the sequential and sharded profilers.
type profiler interface {
	trace.RecHandler
	Finish() *profile.Profile
}

// ProfilePass runs the workload once, collecting the Name profile and TRG.
// With opts.Parallelism > 1 the TRG build runs on the sharded profiler:
// the recency-queue edge scans fan out across per-cache-set-group workers
// (at most Parallelism, clamped by the cache geometry) while the event
// stream stays strictly ordered. The result is byte-identical to the
// sequential profiler at any setting — the differential tests hold the
// sharded build to exact edge-weight equality with the single-queue
// oracle.
func ProfilePass(w workload.Workload, in workload.Input, opts Options) (*ProfileResult, error) {
	return ProfileFrom(Live(w, in, opts), opts)
}

// ProfileFrom runs the profiling pass over any event source — the live
// model or a trace replay. When the source is a replay and the config does
// not say otherwise, the sharded profiler's fan-out buffers deepen to
// ReplayStreamDepth so the I/O-bound decoder still feeds the shard workers
// at full rate.
func ProfileFrom(src EventStream, opts Options) (*ProfileResult, error) {
	span := opts.Metrics.Start(metrics.StageProfile)
	defer span.Stop()
	defer src.Close()

	table := src.Objects()
	cfg := opts.Profile
	cfg.Metrics = opts.Metrics
	if src.Replayed() && cfg.StreamDepth == 0 {
		cfg.StreamDepth = ReplayStreamDepth
	}
	var prof profiler
	if opts.Parallelism > 1 {
		sp, err := profile.NewSharded(cfg, table, opts.Parallelism, opts.Cache.Size)
		if err != nil {
			return nil, err
		}
		prof = sp
	} else {
		p, err := profile.New(cfg, table)
		if err != nil {
			return nil, err
		}
		prof = p
	}
	en := trace.NewEnricher(table, prof)
	if err := src.Drive(en); err != nil {
		prof.Finish() // drain the shard workers; a failed replay must not leak them
		return nil, err
	}
	return &ProfileResult{Profile: prof.Finish(), Counter: en.Counter, Objects: table}, nil
}

// Place computes the CCDP placement for a profile, honouring the
// workload's heap-placement setting as the paper did per program.
func Place(w workload.Workload, pr *ProfileResult, opts Options) (*placement.Map, error) {
	span := opts.Metrics.Start(metrics.StagePlace)
	defer span.Stop()

	cfg := opts.Placement
	cfg.Cache = opts.Cache
	cfg.HeapPlacement = cfg.HeapPlacement && w.HeapPlacement()
	cfg.Metrics = opts.Metrics
	return placement.Compute(cfg, pr.Profile)
}

// LayoutKind selects the evaluated placement.
type LayoutKind string

// The three placements the paper evaluates.
const (
	LayoutNatural LayoutKind = "natural"
	LayoutCCDP    LayoutKind = "ccdp"
	LayoutRandom  LayoutKind = "random"
)

// EvalResult is the outcome of one single-level member's evaluation.
// The results Run returns for one stream share its Counter and Objects;
// treat both as read-only.
type EvalResult struct {
	Workload string
	Input    workload.Input
	Layout   LayoutKind

	Stats   cache.Stats
	Counter *trace.Counter
	Objects *object.Table

	// Per-object reference and miss counts (index: object ID).
	ObjRefs   []uint64
	ObjMisses []uint64

	// Paging results (zero unless Options.TrackPages).
	TotalPages int
	WorkingSet float64

	// Attribution holds the per-set and conflict-pair miss attribution
	// (nil unless Options.Attribution).
	Attribution *cache.AttributionStats

	AllocStats heapsim.Stats
}

// MissRate returns the overall data-cache miss rate (percent).
func (r *EvalResult) MissRate() float64 { return r.Stats.MissRate() }

// HierarchyResult is the outcome of one hierarchy member's evaluation:
// the "other levels of the memory hierarchy" study the paper sketches at
// the end of section 5.1.
type HierarchyResult struct {
	Workload string
	Input    workload.Input
	Layout   LayoutKind
	Stats    hierarchy.Stats

	// Attribution holds the L1 miss attribution (nil unless
	// Options.Attribution): the same per-set counters and conflict-pair
	// sketch a single-level member reports.
	Attribution *cache.AttributionStats
}

// Pass is one evaluation pass over a stream: the labels its results
// carry, the profile and placement its CCDP layouts read, and the groups
// it feeds.
type Pass struct {
	Workload string
	Input    workload.Input
	// HeapPlace selects the CCDP custom allocator: the per-program
	// heap-placement choice the live pipeline reads from
	// Workload.HeapPlacement.
	HeapPlace bool
	// Profile and Placement are required only by LayoutCCDP groups.
	Profile   *ProfileResult
	Placement *placement.Map
	Groups    []GroupSpec
}

// GroupSpec is one group of a pass: a layout and the members it feeds.
// No members means one single-level member of Options.Cache.
type GroupSpec struct {
	Layout  LayoutKind
	Members []Member
}

// Run drives src once, the one way to run an evaluation pass: one
// Enricher feeds one Group per spec, each with its own layout, allocator
// and members, and with opts.TrackPages its own page tracker. out[g][m]
// is the result of p.Groups[g].Members[m], byte-identical to a pass of
// that member alone. The collector sees one StageEval span per group,
// each covering the shared pass.
func Run(src EventStream, p Pass, opts Options) ([][]MemberResult, error) {
	for range p.Groups {
		defer opts.Metrics.Start(metrics.StageEval).Stop()
	}
	defer src.Close()

	table := src.Objects()
	gs := make(groups, len(p.Groups))
	sims := make([][]MemberSim, len(p.Groups))
	for i, spec := range p.Groups {
		lay, alloc, err := BuildLayout(table, spec.Layout, p.HeapPlace, p.Profile, p.Placement, opts)
		if err != nil {
			return nil, err
		}
		gs[i].SetLayout(table, lay, alloc)
		members := spec.Members
		if len(members) == 0 {
			members = []Member{{Cache: opts.Cache}}
		}
		for _, m := range members {
			ms, err := gs[i].Add(m, opts, table.Len())
			if err != nil {
				return nil, err
			}
			sims[i] = append(sims[i], ms)
		}
		if opts.TrackPages {
			gs[i].Pages = vmpage.NewTracker(opts.PageWindowFrac)
		}
	}
	en := trace.NewEnricher(table, gs)
	if err := src.Drive(en); err != nil {
		return nil, err
	}

	out := make([][]MemberResult, len(p.Groups))
	for i, spec := range p.Groups {
		for _, ms := range sims[i] {
			r := gs[i].Result(ms, en, spec.Layout)
			if res := r.Eval; res != nil {
				res.Workload, res.Input = p.Workload, p.Input
				if m := opts.Metrics; m != nil {
					m.Add(metrics.SimAccesses, res.Stats.Accesses)
					m.Add(metrics.SimMisses, res.Stats.Misses)
					m.AddNamed("sim.hits."+string(spec.Layout), res.Stats.Accesses-res.Stats.Misses)
					m.AddNamed("sim.misses."+string(spec.Layout), res.Stats.Misses)
				}
			} else {
				r.Hier.Workload, r.Hier.Input = p.Workload, p.Input
			}
			out[i] = append(out[i], r)
		}
	}
	return out, nil
}

// EvalFrom is Run for one group of one single-level member of
// opts.Cache, under layout kind. wname and in label the result, and
// heapPlace, pr and pm are Pass's HeapPlace, Profile and Placement.
// refsHint is unused: the page tracker sizes its window after the pass.
func EvalFrom(src EventStream, wname string, heapPlace bool, in workload.Input, kind LayoutKind, pr *ProfileResult, pm *placement.Map, opts Options, refsHint uint64) (*EvalResult, error) {
	res, err := Run(src, Pass{Workload: wname, Input: in, HeapPlace: heapPlace, Profile: pr, Placement: pm, Groups: []GroupSpec{{Layout: kind}}}, opts)
	if err != nil {
		return nil, err
	}
	return res[0][0].Eval, nil
}

// BuildLayout materializes the address layout and heap allocator for one
// layout kind over a frozen object table — the shared preamble of every
// evaluation pass (single-level, hierarchy, and the sweep engine's
// per-cell evaluators). heapPlace selects the CCDP custom allocator; pr
// and pm are required only for LayoutCCDP.
func BuildLayout(table *object.Table, kind LayoutKind, heapPlace bool, pr *ProfileResult, pm *placement.Map, opts Options) (*layout.Layout, heapsim.Allocator, error) {
	switch kind {
	case LayoutNatural:
		alloc, err := baseAllocator(opts.HeapFit)
		if err != nil {
			return nil, nil, err
		}
		return layout.Natural(table), alloc, nil
	case LayoutRandom:
		return layout.Random(table, opts.RandomSeed), heapsim.NewRandomFit(opts.RandomSeed + 1), nil
	case LayoutCCDP:
		if pr == nil || pm == nil {
			return nil, nil, fmt.Errorf("sim: ccdp evaluation requires a profile and placement")
		}
		lay, err := layout.FromPlacement(table, pr.Profile, pm)
		if err != nil {
			return nil, nil, err
		}
		if heapPlace {
			return lay, heapsim.NewCustom(pm), nil
		}
		alloc, err := baseAllocator(opts.HeapFit)
		if err != nil {
			return nil, nil, err
		}
		return lay, alloc, nil
	default:
		return nil, nil, fmt.Errorf("sim: unknown layout kind %q", kind)
	}
}

// baseAllocator maps Options.HeapFit to the default (non-placed,
// non-random) heap allocator variant.
func baseAllocator(fit string) (heapsim.Allocator, error) {
	switch fit {
	case "", "first":
		return heapsim.NewFirstFit(), nil
	case "temporal":
		return heapsim.NewTemporalFit(), nil
	default:
		return nil, fmt.Errorf("sim: unknown heap fit %q (want first or temporal)", fit)
	}
}
