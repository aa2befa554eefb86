// Package core orchestrates the full CCDP optimization framework of the
// paper's section 3: profile a workload, feed the Name and TRG profiles to
// the placement optimizer, then re-simulate the program under the original,
// optimized, and (optionally) random placements on the train and test
// inputs. It is the programmatic surface behind every experiment in the
// evaluation.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Comparison holds every artifact of one workload's experiment.
type Comparison struct {
	Workload workload.Workload
	Options  sim.Options

	Profile   *sim.ProfileResult
	Placement *placement.Map

	// Results indexes evaluation passes by input label then layout.
	Results map[string]map[sim.LayoutKind]*sim.EvalResult
}

// Result returns the evaluation for (inputLabel, layout), or nil.
func (c *Comparison) Result(input string, kind sim.LayoutKind) *sim.EvalResult {
	if m := c.Results[input]; m != nil {
		return m[kind]
	}
	return nil
}

// Reduction returns the percent miss-rate reduction of CCDP versus the
// natural placement on the given input (positive = CCDP better).
func (c *Comparison) Reduction(input string) float64 {
	orig := c.Result(input, sim.LayoutNatural)
	ccdp := c.Result(input, sim.LayoutCCDP)
	if orig == nil || ccdp == nil || orig.MissRate() == 0 {
		return 0
	}
	return 100 * (orig.MissRate() - ccdp.MissRate()) / orig.MissRate()
}

// Experiment is one experiment request: a workload plus everything that
// varies between runs — options, the layouts and inputs to evaluate, and
// an optional trace configuration that switches the pipeline to the
// record-once / replay-many path.
type Experiment struct {
	Workload workload.Workload
	Options  sim.Options
	// Layouts to evaluate; empty defaults to natural+CCDP.
	Layouts []sim.LayoutKind
	// Inputs to evaluate on; empty defaults to train+test.
	Inputs []workload.Input
	// Trace, when enabled, records each input's event stream to a file on
	// first contact and drives profiling and every evaluation pass from
	// replay. Artifacts are byte-identical to a live run.
	Trace sim.TraceConfig
	// Profiles, when non-nil, memoizes the profiling pass across
	// experiments: a profile already held for this workload's train input
	// and profiling configuration is reused instead of recomputed, and a
	// fresh one is stored. Results are byte-identical either way. The
	// placement service shares one memo across its jobs.
	Profiles *ProfileMemo

	// Ledger, when non-nil, receives structured run events as the
	// experiment executes: workload start/end, per-stage spans, the
	// placement's phase-6 merge decisions, and one eval summary per
	// (input × layout) unit. The writer is safe for concurrent use, so
	// one ledger may be shared across parallel experiments.
	Ledger *ledger.Writer
	// OnStage, when non-nil, is called as each pipeline stage of this
	// experiment begins (profile, place, then once per evaluation unit).
	// It may be called from worker goroutines; keep it cheap and
	// thread-safe. Progress displays hang off this hook.
	OnStage func(workload string, stage metrics.Stage)
	// OnSpan, when non-nil, observes each completed pipeline stage —
	// fired exactly where the ledger's span events are emitted (profile,
	// place, then one per evaluation unit), with the same start/wall
	// interval. label is "input/layout" for eval units, SpanLabelMemo for
	// a profile served from Profiles, and "" otherwise. Like OnStage it
	// may fire from worker goroutines, and like the ledger it is
	// observation-only: results are byte-identical with or without it.
	// The service's span recorder hangs off this.
	OnSpan SpanFunc

	// Context, when non-nil, cancels the experiment: RunExperiment
	// checks it at every stage boundary (before profiling, placement,
	// and each evaluation unit) and returns the context's error instead
	// of starting the next stage. A stage already running completes —
	// cancellation never yields a partial Comparison, only an error.
	// The job manager in internal/server cancels queued and running
	// jobs through this. Nil means run to completion.
	Context context.Context
}

// SpanFunc is the signature of the Experiment.OnSpan hook: one completed
// pipeline stage with its workload, stage kind, unit label (empty outside
// evaluation), and measured interval.
type SpanFunc func(workload string, stage metrics.Stage, label string, start time.Time, wall time.Duration)

// Run profiles w on its train input, computes the placement, and evaluates
// each requested layout on each requested input. Passing no layouts
// defaults to natural+CCDP; passing no inputs defaults to train+test.
// It is shorthand for RunExperiment without a trace configuration.
func Run(w workload.Workload, opts sim.Options, layouts []sim.LayoutKind, inputs []workload.Input) (*Comparison, error) {
	return RunExperiment(Experiment{Workload: w, Options: opts, Layouts: layouts, Inputs: inputs})
}

// RunExperiment executes one Experiment.
//
// After the shared profile/placement step the (input × layout) evaluation
// passes are independent: each builds its own object table, layout, and
// cache model, and reads the profile/placement read-only. With
// opts.Parallelism > 1 they fan out across a bounded worker pool;
// results are keyed and reassembled in canonical (input, layout) order,
// so the Comparison is bit-identical to a sequential run.
//
// With e.Trace enabled, every pass is driven from trace files instead of
// the live model: each input's stream is recorded once (a pure record
// pass with no other consumers) and replayed for profiling, reference
// counting, and every evaluation. Replay reconstructs the object tables
// from the recorded headers and feeds the identical event sequence, so
// the Comparison is again bit-identical — at any parallelism.
func RunExperiment(e Experiment) (*Comparison, error) {
	w, opts := e.Workload, e.Options
	if w == nil {
		return nil, fmt.Errorf("core: experiment has no workload")
	}
	ctx := e.Context
	if ctx == nil {
		ctx = context.Background()
	}
	span := opts.Metrics.Start(metrics.StagePipeline)
	defer span.Stop()

	layouts, inputs := e.Layouts, e.Inputs
	if len(layouts) == 0 {
		layouts = []sim.LayoutKind{sim.LayoutNatural, sim.LayoutCCDP}
	}
	if len(inputs) == 0 {
		inputs = []workload.Input{w.Train(), w.Test()}
	}
	var store *sim.TraceStore
	if e.Trace.Enabled() {
		store = sim.NewTraceStore(e.Trace, w, opts.Metrics)
	}

	e.Ledger.WorkloadStart(ledger.WorkloadStart{
		Workload: w.Name(),
		Inputs:   inputLabels(inputs),
		Layouts:  layoutNames(layouts),
	})

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %s cancelled before profiling: %w", w.Name(), err)
	}
	e.stage(w.Name(), metrics.StageProfile)
	profStart := time.Now()
	pr, profLabel, err := e.profile(store, w, opts)
	if err != nil {
		return nil, fmt.Errorf("core: profiling %s: %w", w.Name(), err)
	}
	e.Ledger.Span(w.Name(), metrics.StageProfile.String(), profStart, time.Since(profStart))
	e.span(w.Name(), metrics.StageProfile, profLabel, profStart)

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %s cancelled before placement: %w", w.Name(), err)
	}
	e.stage(w.Name(), metrics.StagePlace)
	placeStart := time.Now()
	pm, err := sim.Place(w, pr, opts)
	if err != nil {
		return nil, fmt.Errorf("core: placing %s: %w", w.Name(), err)
	}
	e.Ledger.Span(w.Name(), metrics.StagePlace.String(), placeStart, time.Since(placeStart))
	e.span(w.Name(), metrics.StagePlace, "", placeStart)
	e.Ledger.Placement(ledgerPlacement(w.Name(), pm))

	c := &Comparison{
		Workload:  w,
		Options:   opts,
		Profile:   pr,
		Placement: pm,
		Results:   make(map[string]map[sim.LayoutKind]*sim.EvalResult),
	}

	// The refs hint (which sizes the paging tracker's working-set window)
	// is an exact per-input quantity, identical for every layout of that
	// input. Resolve it once up front — reusing the profile pass's count
	// when an input is the profiled train input, instead of re-counting —
	// and share it across inputs and layouts. The seed chained the hint
	// from layout to layout within one input, which produced these same
	// exact values one CountRefs pass later.
	hints := make([]uint64, len(inputs))
	if opts.TrackPages {
		for i, in := range inputs {
			if in == w.Train() {
				hints[i] = pr.Counter.Refs()
			} else if hints[i], err = countRefs(store, w, in, opts); err != nil {
				return nil, fmt.Errorf("core: counting %s/%s: %w", w.Name(), in.Label, err)
			}
		}
	}

	type unit struct{ input, layout int }
	units := make([]unit, 0, len(inputs)*len(layouts))
	for i := range inputs {
		for l := range layouts {
			units = append(units, unit{input: i, layout: l})
		}
	}

	// evalUnit runs one (input × layout) pass with its observability
	// wrapping: the OnStage hook, a ledger span, and an eval summary.
	// Both the sequential and the parallel path route through it, so a
	// ledger records the same events either way (span interleaving and
	// timing differ; results and summaries do not).
	evalUnit := func(in workload.Input, kind sim.LayoutKind, passOpts sim.Options, hint uint64) (*sim.EvalResult, error) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: %s cancelled before evaluating %s/%s: %w", w.Name(), in.Label, kind, err)
		}
		e.stage(w.Name(), metrics.StageEval)
		start := time.Now()
		res, err := evalPass(store, w, in, kind, pr, pm, passOpts, hint)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating %s/%s/%s: %w", w.Name(), in.Label, kind, err)
		}
		e.Ledger.Span(w.Name(), metrics.StageEval.String(), start, time.Since(start))
		e.span(w.Name(), metrics.StageEval, in.Label+"/"+string(kind), start)
		e.Ledger.Eval(ledgerEval(res))
		return res, nil
	}

	var results []*sim.EvalResult
	if opts.Parallelism > 1 && len(units) > 1 {
		tasks := make([]exec.Task[*sim.EvalResult], len(units))
		for ui, u := range units {
			u := u
			tasks[ui] = func(_ context.Context, mc *metrics.Collector) (*sim.EvalResult, error) {
				passOpts := opts
				passOpts.Metrics = mc
				return evalUnit(inputs[u.input], layouts[u.layout], passOpts, hints[u.input])
			}
		}
		var err error
		results, err = exec.Map(ctx, opts.Parallelism, opts.Metrics, tasks)
		if err != nil {
			return nil, err
		}
	} else {
		results = make([]*sim.EvalResult, len(units))
		for ui, u := range units {
			res, err := evalUnit(inputs[u.input], layouts[u.layout], opts, hints[u.input])
			if err != nil {
				return nil, err
			}
			results[ui] = res
		}
	}

	for ui, u := range units {
		in := inputs[u.input]
		byLayout := c.Results[in.Label]
		if byLayout == nil {
			byLayout = make(map[sim.LayoutKind]*sim.EvalResult, len(layouts))
			c.Results[in.Label] = byLayout
		}
		byLayout[layouts[u.layout]] = results[ui]
	}
	if e.Ledger != nil {
		we := ledger.WorkloadEnd{Workload: w.Name()}
		for _, in := range inputs {
			we.Reductions = append(we.Reductions, ledger.Reduction{
				Input: in.Label, ReductionPct: c.Reduction(in.Label),
			})
		}
		e.Ledger.WorkloadEnd(we)
	}
	return c, nil
}

// stage fires the experiment's OnStage hook, if any.
func (e *Experiment) stage(workload string, s metrics.Stage) {
	if e.OnStage != nil {
		e.OnStage(workload, s)
	}
}

// span fires the experiment's OnSpan hook, if any.
func (e *Experiment) span(workload string, s metrics.Stage, label string, start time.Time) {
	if e.OnSpan != nil {
		e.OnSpan(workload, s, label, start, time.Since(start))
	}
}

func inputLabels(inputs []workload.Input) []string {
	out := make([]string, len(inputs))
	for i, in := range inputs {
		out[i] = in.Label
	}
	return out
}

func layoutNames(layouts []sim.LayoutKind) []string {
	out := make([]string, len(layouts))
	for i, k := range layouts {
		out[i] = string(k)
	}
	return out
}

// ledgerPlacement converts a placement map into its ledger event,
// including the ordered phase-6 merge log.
func ledgerPlacement(workload string, pm *placement.Map) ledger.Placement {
	p := ledger.Placement{
		Workload:          workload,
		Globals:           len(pm.GlobalLayout),
		SegmentBytes:      pm.GlobalSegSize,
		HeapPlans:         len(pm.HeapPlans),
		Bins:              pm.NumBins,
		PredictedConflict: pm.PredictedConflict,
	}
	for _, step := range pm.MergeLog {
		p.Merges = append(p.Merges, ledger.MergeDecision{
			A: step.A, B: step.B, Weight: step.Weight,
			ChosenLine: step.ChosenLine, Members: step.Members,
		})
	}
	return p
}

// ledgerEval converts one evaluation result into its ledger event. The
// category rates are emitted in enum order so the bytes are deterministic.
func ledgerEval(res *sim.EvalResult) ledger.Eval {
	ev := ledger.Eval{
		Workload:        res.Workload,
		Input:           res.Input.Label,
		Layout:          string(res.Layout),
		Accesses:        res.Stats.Accesses,
		Misses:          res.Stats.Misses,
		MissRatePct:     res.MissRate(),
		TotalPages:      res.TotalPages,
		WorkingSetPages: res.WorkingSet,
	}
	for c := 0; c < object.NumCategories; c++ {
		cat := object.Category(c)
		ev.ByCategoryPct = append(ev.ByCategoryPct, ledger.CategoryRate{
			Category: cat.String(),
			MissPct:  res.Stats.CategoryMissRate(cat),
		})
	}
	return ev
}

// profile returns the train input's profile and its span label: from
// e.Profiles when it holds one for this key, otherwise from a fresh pass
// that is then stored. A hit still times a (near-empty) profile stage on
// the collector, so stage counts do not depend on the memo.
func (e *Experiment) profile(store *sim.TraceStore, w workload.Workload, opts sim.Options) (*sim.ProfileResult, string, error) {
	key := profileKeyOf(w, opts)
	if pr := e.Profiles.get(key); pr != nil {
		opts.Metrics.Start(metrics.StageProfile).Stop()
		return pr, SpanLabelMemo, nil
	}
	pr, err := profilePass(store, w, opts)
	if err != nil {
		return nil, "", err
	}
	e.Profiles.put(key, pr)
	return pr, "", nil
}

// profilePass profiles the train input, live or from the trace store.
func profilePass(store *sim.TraceStore, w workload.Workload, opts sim.Options) (*sim.ProfileResult, error) {
	if store == nil {
		return sim.ProfilePass(w, w.Train(), opts)
	}
	src, err := store.Open(w.Train(), opts)
	if err != nil {
		return nil, err
	}
	return sim.ProfileFrom(src, opts)
}

// countRefs sizes a working-set window, live or from the trace store. The
// sizing pass never feeds the metrics collector (CountRefs's contract), so
// the trace replay opens with a nil collector too.
func countRefs(store *sim.TraceStore, w workload.Workload, in workload.Input, opts sim.Options) (uint64, error) {
	if store == nil {
		return sim.CountRefs(w, in, opts), nil
	}
	opts.Metrics = nil
	src, err := store.Open(in, opts)
	if err != nil {
		return 0, err
	}
	return sim.CountRefsFrom(src)
}

// evalPass runs one evaluation unit, live or from the trace store.
func evalPass(store *sim.TraceStore, w workload.Workload, in workload.Input, kind sim.LayoutKind, pr *sim.ProfileResult, pm *placement.Map, opts sim.Options, hint uint64) (*sim.EvalResult, error) {
	if store == nil {
		return sim.EvalPass(w, in, kind, pr, pm, opts, hint)
	}
	src, err := store.Open(in, opts)
	if err != nil {
		return nil, err
	}
	return sim.EvalFrom(src, w.Name(), w.HeapPlacement(), in, kind, pr, pm, opts, hint)
}
