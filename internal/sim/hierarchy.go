package sim

import (
	"repro/internal/cache"
	"repro/internal/hierarchy"
	"repro/internal/placement"
	"repro/internal/trace"
	"repro/internal/workload"
)

// HierarchyResult is the outcome of one multi-level evaluation pass.
type HierarchyResult struct {
	Workload string
	Input    workload.Input
	Layout   LayoutKind
	Stats    hierarchy.Stats

	// Attribution holds the L1 miss attribution (nil unless
	// Options.Attribution) — the same per-set counters and conflict-pair
	// sketch a single-level pass reports, so attribution propagates
	// consistently across both evaluation shapes.
	Attribution *cache.AttributionStats
}

// EvalHierarchy replays the workload through an L1+L2+TLB stack under the
// given layout — the "other levels of the memory hierarchy" study the
// paper sketches at the end of section 5.1.
func EvalHierarchy(w workload.Workload, in workload.Input, kind LayoutKind, pr *ProfileResult, pm *placement.Map, hcfg hierarchy.Config, opts Options) (*HierarchyResult, error) {
	return EvalHierarchyFrom(Live(w, in, opts), w.Name(), w.HeapPlacement(), in, kind, pr, pm, hcfg, opts)
}

// EvalHierarchyFrom runs one multi-level evaluation pass over any event
// source — the live model or a trace replay — mirroring EvalFrom's
// contract: wname labels the result, heapPlace selects the CCDP custom
// allocator, and opts.Attribution attaches the L1 attribution sink.
func EvalHierarchyFrom(src EventStream, wname string, heapPlace bool, in workload.Input, kind LayoutKind, pr *ProfileResult, pm *placement.Map, hcfg hierarchy.Config, opts Options) (*HierarchyResult, error) {
	defer src.Close()

	table := src.Objects()
	lay, alloc, err := BuildLayout(table, kind, heapPlace, pr, pm, opts)
	if err != nil {
		return nil, err
	}
	var g Group
	g.SetLayout(table, lay, alloc)
	hs, err := g.AddHier(hcfg, opts, table.Len())
	if err != nil {
		return nil, err
	}
	if err := src.Drive(trace.NewEnricher(table, &g)); err != nil {
		return nil, err
	}
	res := HierResult(hs, kind)
	res.Workload, res.Input = wname, in
	return res, nil
}
