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
	// placement's phase-6 merge decisions, and one span and eval summary
	// per (input × layout) unit, every unit's span covering its input's
	// shared evaluation pass. The writer is safe for concurrent use, so
	// one ledger may be shared across parallel experiments.
	Ledger *ledger.Writer
	// OnStage, when non-nil, is called as each pipeline stage of this
	// experiment begins (profile, place, then once per evaluation unit,
	// all of one input's units as its shared pass begins).
	// It may be called from worker goroutines; keep it cheap and
	// thread-safe. Progress displays hang off this hook.
	OnStage func(workload string, stage metrics.Stage)
	// OnSpan, when non-nil, observes each completed pipeline stage —
	// fired exactly where the ledger's span events are emitted (profile,
	// place, then one per evaluation unit), with the same start/wall
	// interval; an eval unit's interval is its input's shared pass.
	// label is "input/layout" for eval units, SpanLabelMemo for
	// a profile served from Profiles, and "" otherwise. Like OnStage it
	// may fire from worker goroutines, and like the ledger it is
	// observation-only: results are byte-identical with or without it.
	// The service's span recorder hangs off this.
	OnSpan SpanFunc

	// Context, when non-nil, cancels the experiment: RunExperiment
	// checks it at every stage boundary (before profiling, placement,
	// and each input's evaluation pass) and returns the context's error
	// instead of starting the next stage. A stage already running
	// completes — cancellation never yields a partial Comparison, only an
	// error. The job manager in internal/server cancels queued and
	// running jobs through this. Nil means run to completion.
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
// After the shared profile/placement step each input is evaluated in one
// pass: its stream is opened and decoded once and feeds one sim.Group per
// layout (sim.Run), each with its own layout, allocator, cache model and,
// with TrackPages, page tracker, all reading the profile/placement
// read-only. The inputs' passes are independent; with opts.Parallelism >
// 1 they fan out across a bounded worker pool, and results are
// reassembled in canonical (input, layout) order, so the Comparison is
// bit-identical to a sequential run.
//
// With e.Trace enabled, every pass is driven from trace files instead of
// the live model: each input's stream is recorded once (a pure record
// pass with no other consumers) and replayed for profiling and every
// evaluation. Replay reconstructs the object tables from the recorded
// headers and feeds the identical event sequence, so the Comparison is
// again bit-identical — at any parallelism.
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
	e.done(w.Name(), metrics.StageProfile, profLabel, profStart, time.Since(profStart))

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %s cancelled before placement: %w", w.Name(), err)
	}
	e.stage(w.Name(), metrics.StagePlace)
	placeStart := time.Now()
	pm, err := sim.Place(w, pr, opts)
	if err != nil {
		return nil, fmt.Errorf("core: placing %s: %w", w.Name(), err)
	}
	e.done(w.Name(), metrics.StagePlace, "", placeStart, time.Since(placeStart))
	e.Ledger.Placement(ledgerPlacement(w.Name(), pm))

	c := &Comparison{
		Workload:  w,
		Options:   opts,
		Profile:   pr,
		Placement: pm,
		Results:   make(map[string]map[sim.LayoutKind]*sim.EvalResult),
	}

	groups := make([]sim.GroupSpec, len(layouts))
	for l, kind := range layouts {
		groups[l].Layout = kind
	}
	// evalInput evaluates every layout on input i in one pass, wrapped per
	// (input × layout) unit in an OnStage call, a span and an eval
	// summary, each unit's interval being the shared pass. Both the
	// sequential and the parallel path route through it, so a ledger
	// records the same events either way (span interleaving and timing
	// differ; results and summaries do not).
	evalInput := func(i int, passOpts sim.Options) ([]*sim.EvalResult, error) {
		in := inputs[i]
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: %s cancelled before evaluating %s: %w", w.Name(), in.Label, err)
		}
		for range layouts {
			e.stage(w.Name(), metrics.StageEval)
		}
		start := time.Now()
		src, err := open(store, w, in, passOpts)
		var out [][]sim.MemberResult
		if err == nil {
			out, err = sim.Run(src, sim.Pass{Workload: w.Name(), Input: in, HeapPlace: w.HeapPlacement(), Profile: pr, Placement: pm, Groups: groups}, passOpts)
		}
		if err != nil {
			return nil, fmt.Errorf("core: evaluating %s/%s: %w", w.Name(), in.Label, err)
		}
		wall := time.Since(start)
		res := make([]*sim.EvalResult, len(out))
		for l, r := range out {
			res[l] = r[0].Eval
			e.done(w.Name(), metrics.StageEval, in.Label+"/"+string(res[l].Layout), start, wall)
			e.Ledger.Eval(ledgerEval(res[l]))
		}
		return res, nil
	}

	var results [][]*sim.EvalResult
	if opts.Parallelism > 1 && len(inputs) > 1 {
		tasks := make([]exec.Task[[]*sim.EvalResult], len(inputs))
		for i := range inputs {
			tasks[i] = func(_ context.Context, mc *metrics.Collector) ([]*sim.EvalResult, error) {
				passOpts := opts
				passOpts.Metrics = mc
				return evalInput(i, passOpts)
			}
		}
		if results, err = exec.Map(ctx, opts.Parallelism, opts.Metrics, tasks); err != nil {
			return nil, err
		}
	} else {
		results = make([][]*sim.EvalResult, len(inputs))
		for i := range inputs {
			if results[i], err = evalInput(i, opts); err != nil {
				return nil, err
			}
		}
	}

	for i, in := range inputs {
		byLayout := make(map[sim.LayoutKind]*sim.EvalResult, len(layouts))
		for l, kind := range layouts {
			byLayout[kind] = results[i][l]
		}
		c.Results[in.Label] = byLayout
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

// done records a completed stage: a ledger span, and the experiment's
// OnSpan hook, if any.
func (e *Experiment) done(workload string, s metrics.Stage, label string, start time.Time, wall time.Duration) {
	e.Ledger.Span(workload, s.String(), start, wall)
	if e.OnSpan != nil {
		e.OnSpan(workload, s, label, start, wall)
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
	src, err := open(store, w, w.Train(), opts)
	if err != nil {
		return nil, "", err
	}
	pr, err := sim.ProfileFrom(src, opts)
	if err != nil {
		return nil, "", err
	}
	e.Profiles.put(key, pr)
	return pr, "", nil
}

// open returns in's event stream: live, or replayed from the trace store.
func open(store *sim.TraceStore, w workload.Workload, in workload.Input, opts sim.Options) (sim.EventStream, error) {
	if store == nil {
		return sim.Live(w, in, opts), nil
	}
	return store.Open(in, opts)
}
