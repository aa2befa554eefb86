package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/trg"
	"repro/internal/workload"
)

// execute runs one job's computation and renders its result. Every
// renderer here is deterministic — encoding/json sorts map keys and all
// slices are emitted in canonical order — so two identical requests
// produce byte-identical results, and a server-side eval is
// byte-identical to the same experiment run through cmd/ccdp's -json
// path. The determinism test and the CI smoke step both hold it to that.
func (s *Server) execute(ctx context.Context, j *Job, wmc *metrics.Collector) ([]byte, error) {
	req := j.Req
	if req.Kind == KindSuite {
		return s.executeSuite(ctx, j, wmc)
	}
	w, err := workload.Get(req.Workload)
	if err != nil {
		return nil, err
	}
	opts := s.optionsFor(req, wmc)
	if req.Kind == KindSweep {
		return s.executeSweep(ctx, j, w, opts)
	}
	cmp, err := core.RunExperiment(core.Experiment{
		Workload: w,
		Options:  opts,
		Layouts:  layoutKinds(req.Layouts),
		Inputs:   selectInputs(w, req.Scale, req.Inputs),
		Trace:    s.cfg.Trace,
		Profiles: s.profiles,
		Ledger:   j.lw,
		OnStage:  j.observeStage,
		OnSpan:   j.rec.SpanDone,
		Context:  ctx,
	})
	if err != nil {
		return nil, err
	}
	j.prog.Done(w.Name())
	switch req.Kind {
	case KindPlace:
		return renderPlacement(cmp)
	case KindExplain:
		return renderExplain(cmp)
	default:
		return renderComparisons([]*core.Comparison{cmp})
	}
}

// optionsFor derives the job's evaluation options from the server
// defaults and the request's overrides, mirroring how sweep cells
// re-derive profiling defaults when the cache geometry changes.
func (s *Server) optionsFor(req JobRequest, wmc *metrics.Collector) sim.Options {
	opts := sim.DefaultOptions()
	opts.Metrics = wmc
	opts.Parallelism = s.cfg.Parallelism
	if req.Cache != nil {
		opts.Cache = applyCacheSpec(opts.Cache, req.Cache)
		def := profile.DefaultConfig(opts.Cache.Size)
		opts.Profile.ChunkSize = def.ChunkSize
		opts.Profile.QueueThreshold = def.QueueThreshold
	}
	if req.Profile != nil {
		opts.Profile = applyProfileSpec(opts.Profile, req.Profile)
	}
	if req.Kind == KindExplain {
		opts.Attribution = true
	}
	return opts
}

// layoutKinds converts request layout names (already validated).
func layoutKinds(names []string) []sim.LayoutKind {
	kinds := make([]sim.LayoutKind, len(names))
	for i, n := range names {
		kinds[i] = sim.LayoutKind(n)
	}
	return kinds
}

// selectInputs scales the workload's inputs and keeps the requested
// subset (nil = both train and test).
func selectInputs(w workload.Workload, scale float64, labels []string) []workload.Input {
	all := benchsuite.ScaledInputs(w, scale)
	if len(labels) == 0 {
		return all
	}
	keep := make(map[string]bool, len(labels))
	for _, l := range labels {
		keep[l] = true
	}
	var out []workload.Input
	for _, in := range all {
		if keep[in.Label] {
			out = append(out, in)
		}
	}
	return out
}

// renderComparisons is the eval/suite result: exactly the report
// package's JSON form, which is also what cmd/ccdp -json writes.
func renderComparisons(cmps []*core.Comparison) ([]byte, error) {
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, cmps); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// placementPlan is the place-job result: the full placement map resolved
// against the profile's node names.
type placementPlan struct {
	Workload          string         `json:"workload"`
	Globals           []globalSlot   `json:"globals"`
	SegmentBytes      int64          `json:"segmentBytes"`
	SegmentStart      uint64         `json:"segmentStart"`
	StackStart        uint64         `json:"stackStart"`
	HeapPlans         int            `json:"heapPlans"`
	Bins              int            `json:"bins"`
	PredictedConflict uint64         `json:"predictedConflict"`
	Merges            []mergeDecison `json:"merges,omitempty"`
}

type globalSlot struct {
	Name    string `json:"name"`
	Offset  int64  `json:"offset"`
	Size    int64  `json:"size"`
	Popular bool   `json:"popular,omitempty"`
}

type mergeDecison struct {
	A          int    `json:"a"`
	B          int    `json:"b"`
	Weight     uint64 `json:"weight"`
	ChosenLine int    `json:"chosenLine"`
	Members    int    `json:"members"`
}

func renderPlacement(cmp *core.Comparison) ([]byte, error) {
	g := cmp.Profile.Profile.Graph
	pm := cmp.Placement
	plan := placementPlan{
		Workload:          cmp.Workload.Name(),
		Globals:           make([]globalSlot, len(pm.GlobalLayout)),
		SegmentBytes:      pm.GlobalSegSize,
		SegmentStart:      uint64(pm.GlobalSegStart),
		StackStart:        uint64(pm.StackStart),
		HeapPlans:         len(pm.HeapPlans),
		Bins:              pm.NumBins,
		PredictedConflict: pm.PredictedConflict,
	}
	for i, slot := range pm.GlobalLayout {
		gs := globalSlot{Offset: slot.Offset, Size: slot.Size}
		if slot.Node != trg.NoNode {
			n := g.Node(slot.Node)
			gs.Name = n.Name
			gs.Popular = n.Popular
		}
		plan.Globals[i] = gs
	}
	for _, step := range pm.MergeLog {
		plan.Merges = append(plan.Merges, mergeDecison(step))
	}
	return marshalResult(plan)
}

// explainResult is the explain-job result: one entry per (input ×
// layout) evaluation, in sorted order, carrying the rendered
// miss-attribution views alongside the headline numbers.
type explainResult struct {
	Workload string        `json:"workload"`
	Passes   []explainPass `json:"passes"`
}

type explainPass struct {
	Input       string  `json:"input"`
	Layout      string  `json:"layout"`
	MissRatePct float64 `json:"missRatePct"`
	// Heatmap, TopSets, and TopConflicts are the same preformatted text
	// blocks cmd/ccdp -explain-misses prints.
	Heatmap      string `json:"heatmap"`
	TopSets      string `json:"topSets"`
	TopConflicts string `json:"topConflicts"`
}

func renderExplain(cmp *core.Comparison) ([]byte, error) {
	out := explainResult{Workload: cmp.Workload.Name()}
	inputs := make([]string, 0, len(cmp.Results))
	for in := range cmp.Results {
		inputs = append(inputs, in)
	}
	sort.Strings(inputs)
	for _, in := range inputs {
		byLayout := cmp.Results[in]
		kinds := make([]string, 0, len(byLayout))
		for k := range byLayout {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			r := byLayout[sim.LayoutKind(k)]
			out.Passes = append(out.Passes, explainPass{
				Input:        in,
				Layout:       k,
				MissRatePct:  r.MissRate(),
				Heatmap:      report.Heatmap(r.Attribution, 64),
				TopSets:      report.TopSets(r.Attribution, 8),
				TopConflicts: report.TopConflicts(r.Attribution, r.Objects, 10),
			})
		}
	}
	return marshalResult(out)
}

// sweepResult is the sweep-job result: the per-cell matrix with the
// Pareto frontier marked, plus the shared engine's throughput counters.
type sweepResult struct {
	Workload      string            `json:"workload"`
	Input         string            `json:"input"`
	Cells         []report.SweepRow `json:"cells"`
	ConfigsPerSec float64           `json:"configsPerSec"`
	Events        uint64            `json:"events"`
	Batches       uint64            `json:"batches"`
}

func (s *Server) executeSweep(ctx context.Context, j *Job, w workload.Workload, opts sim.Options) ([]byte, error) {
	// The job context rides into the engine: cancellation (DELETE,
	// client abort, shutdown drain) is observed at the prep-stage
	// boundaries and between broadcast batches of the replay, so a
	// running sweep stops within one batch instead of finishing the
	// whole grid.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("server: %s cancelled before sweep: %w", w.Name(), err)
	}
	j.observeStage(w.Name(), metrics.StageSweep)
	var grid sweep.Grid
	if j.Req.Grid != nil {
		grid = *j.Req.Grid
	}
	inputs := benchsuite.ScaledInputs(w, j.Req.Scale)
	prep, err := sweep.NewPrep(sweep.Request{
		Workload: w,
		Train:    inputs[0],
		Test:     inputs[1],
		Grid:     grid,
		Options:  opts,
		Trace:    s.cfg.Trace,
		Context:  ctx,
		// The engine serializes its progress emissions, so the recorder
		// publishes monotonically increasing cell counts to the stream.
		OnProgress: func(p sweep.Progress) {
			j.rec.Sweep(telemetry.SweepProgress{
				Phase:      p.Phase,
				GroupsDone: p.GroupsDone,
				Groups:     p.Groups,
				CellsDone:  p.CellsDone,
				CellsTotal: p.CellsTotal,
				Batches:    p.Batches,
				Events:     p.Events,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	res, err := prep.RunShared(opts.Parallelism)
	if err != nil {
		return nil, err
	}
	j.prog.Done(w.Name())
	return marshalResult(sweepResult{
		Workload:      res.Workload,
		Input:         res.Input,
		Cells:         res.Rows(),
		ConfigsPerSec: res.ConfigsPerSec(),
		Events:        res.Events,
		Batches:       res.Batches,
	})
}

func (s *Server) executeSuite(ctx context.Context, j *Job, wmc *metrics.Collector) ([]byte, error) {
	cmps, _, err := benchsuite.Config{
		Scale:       j.Req.Scale,
		Workloads:   j.Req.Workloads,
		Metrics:     wmc,
		Parallelism: s.cfg.Parallelism,
		Trace:       s.cfg.Trace,
		Ledger:      j.lw,
		Progress:    j.prog,
		OnStage:     j.rec.StageBegin,
		OnSpan:      j.rec.SpanDone,
		Context:     ctx,
	}.Run()
	if err != nil {
		return nil, err
	}
	return renderComparisons(cmps)
}

// marshalResult renders a result document the one canonical way:
// indented JSON with a trailing newline (matching report.WriteJSON's
// encoder), so every job kind's bytes are stable and diff-friendly.
func marshalResult(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
