// Package benchsuite is the shared benchmark harness behind both the
// repository's `go test -bench` file and cmd/ccdpbench: it runs every
// workload through the full pipeline (profile -> placement -> evaluation)
// at a reduced trace scale and aggregates the headline quantities the
// paper's evaluation reports. Keeping it in one package guarantees the
// Go benchmarks and the CI bench gate measure the same thing.
package benchsuite

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// DefaultScale is the fidelity/runtime trade-off both the bench harness
// and the CI gate run at: the fraction of each input's full burst count.
const DefaultScale = 0.15

// ScaledInputs returns the workload's train and test inputs with their
// burst counts scaled by scale (1.0 = the full reproduction scale).
func ScaledInputs(w workload.Workload, scale float64) []workload.Input {
	tr, te := w.Train(), w.Test()
	tr.Bursts = int(float64(tr.Bursts) * scale)
	te.Bursts = int(float64(te.Bursts) * scale)
	return []workload.Input{tr, te}
}

// RunWorkloads runs the named workloads (nil = all nine) through the
// pipeline with the given options and layouts at the given scale, in
// workload order. It is RunExperiments without a trace configuration.
func RunWorkloads(names []string, opts sim.Options, layouts []sim.LayoutKind, scale float64) ([]*core.Comparison, error) {
	return RunExperiments(names, opts, layouts, scale, sim.TraceConfig{})
}

// RunExperiments runs the named workloads (nil = all nine) through the
// pipeline with the given options, layouts, and trace configuration at the
// given scale, in workload order.
//
// The workloads are fully independent experiments, so with
// opts.Parallelism > 1 they fan out across the exec worker pool; results
// return in workload order and are bit-identical to a sequential run.
// Per-worker metrics collectors merge into opts.Metrics. Workers the
// outer fan-out cannot use — when the workload count is below the pool
// size — are donated inward: each experiment runs with parallelism
// floor(pool/workloads) (at least 1), which its profile stage spends on
// TRG shard workers and its evaluation stage on concurrent per-input
// passes (each decodes its input once for every layout). Inner
// parallelism never changes results, so the donation only moves wall
// clock.
func RunExperiments(names []string, opts sim.Options, layouts []sim.LayoutKind, scale float64, tc sim.TraceConfig) ([]*core.Comparison, error) {
	return runExperiments(context.Background(), names, opts, layouts, scale, tc, nil, nil, nil, nil)
}

// runExperiments is the full-featured suite runner: RunExperiments plus
// the observability hooks Config.Run threads in. led (shared, concurrency
// safe) receives every experiment's structured events; prog tracks live
// progress through the core stage hook; extraStage observes stage starts
// alongside prog and onSpan each completed stage (see
// core.Experiment.OnStage/OnSpan; both must be safe for concurrent
// calls, since workloads fan out). All may be nil. ctx cancels the
// suite at experiment stage boundaries (core.Experiment.Context).
func runExperiments(ctx context.Context, names []string, opts sim.Options, layouts []sim.LayoutKind, scale float64, tc sim.TraceConfig, led *ledger.Writer, prog *Progress, extraStage func(string, metrics.Stage), onSpan core.SpanFunc) ([]*core.Comparison, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("benchsuite: scale %g <= 0", scale)
	}
	var ws []workload.Workload
	if len(names) == 0 {
		ws = workload.All()
	} else {
		for _, name := range names {
			w, err := workload.Get(name)
			if err != nil {
				return nil, err
			}
			ws = append(ws, w)
		}
	}
	onStage := extraStage
	if prog != nil {
		if extraStage != nil {
			onStage = func(workload string, stage metrics.Stage) {
				prog.Observe(workload, stage)
				extraStage(workload, stage)
			}
		} else {
			onStage = prog.Observe
		}
	}
	runOne := func(w workload.Workload, runOpts sim.Options) (*core.Comparison, error) {
		cmp, err := core.RunExperiment(core.Experiment{
			Workload: w, Options: runOpts, Layouts: layouts,
			Inputs: ScaledInputs(w, scale), Trace: tc,
			Ledger: led, OnStage: onStage, OnSpan: onSpan, Context: ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("benchsuite: %s: %w", w.Name(), err)
		}
		prog.Done(w.Name())
		return cmp, nil
	}
	if opts.Parallelism > 1 && len(ws) > 1 {
		inner := opts.Parallelism / len(ws)
		if inner < 1 {
			inner = 1
		}
		tasks := make([]exec.Task[*core.Comparison], len(ws))
		for i, w := range ws {
			w := w
			tasks[i] = func(_ context.Context, mc *metrics.Collector) (*core.Comparison, error) {
				runOpts := opts
				runOpts.Metrics = mc
				runOpts.Parallelism = inner
				return runOne(w, runOpts)
			}
		}
		return exec.Map(ctx, opts.Parallelism, opts.Metrics, tasks)
	}
	var cmps []*core.Comparison
	for _, w := range ws {
		cmp, err := runOne(w, opts)
		if err != nil {
			return nil, err
		}
		cmps = append(cmps, cmp)
	}
	return cmps, nil
}

// RunSuite runs the full suite (all workloads, default layouts) at the
// given scale — the reduced-scale suite bench_test.go is built on.
func RunSuite(opts sim.Options, layouts []sim.LayoutKind, scale float64) ([]*core.Comparison, error) {
	return RunWorkloads(nil, opts, layouts, scale)
}

// AvgReduction averages the CCDP miss-rate reduction over the comparisons
// for one input label ("train" or "test").
func AvgReduction(cmps []*core.Comparison, input string) float64 {
	if len(cmps) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cmps {
		sum += c.Reduction(input)
	}
	return sum / float64(len(cmps))
}

// Config parameterises one gate/artifact run of the suite.
type Config struct {
	// Scale is the trace scale (0 selects DefaultScale).
	Scale float64
	// Workloads restricts the suite (nil = all).
	Workloads []string
	// Metrics receives pipeline instrumentation for the artifact's
	// observability section (nil = none collected).
	Metrics *metrics.Collector
	// Parallelism bounds concurrent workloads (<= 1 = sequential).
	// Results are identical at any setting; only wall clock changes.
	Parallelism int
	// Trace, when enabled, drives every pipeline pass from recorded
	// trace files (recording on first contact) instead of the live
	// model. Results are identical either way.
	Trace sim.TraceConfig
	// Ledger, when non-nil, receives every experiment's structured run
	// events (the caller owns run_start/run_end framing and Close).
	Ledger *ledger.Writer
	// Progress, when non-nil, tracks workloads done/total and each
	// in-flight workload's current stage — the source for cmd/ccdpbench's
	// progress line and the -debug-addr snapshot endpoint.
	Progress *Progress
	// OnStage, when non-nil, observes each pipeline stage starting,
	// alongside (not instead of) the Progress tracker. OnSpan, when
	// non-nil, observes each completed stage (see
	// core.Experiment.OnStage/OnSpan). Both fire from worker goroutines
	// when Parallelism > 1, so they must be thread-safe.
	OnStage func(workload string, stage metrics.Stage)
	OnSpan  core.SpanFunc
	// Context, when non-nil, cancels the suite at experiment stage
	// boundaries (see core.Experiment.Context). Nil runs to completion.
	Context context.Context
}

// Run executes the suite per cfg with the paper's default options and
// returns the comparisons alongside the effective scale.
func (cfg Config) Run() ([]*core.Comparison, float64, error) {
	scale := cfg.Scale
	if scale == 0 {
		scale = DefaultScale
	}
	opts := sim.DefaultOptions()
	opts.Metrics = cfg.Metrics
	opts.Parallelism = cfg.Parallelism
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	cmps, err := runExperiments(ctx, cfg.Workloads, opts, nil, scale, cfg.Trace, cfg.Ledger, cfg.Progress, cfg.OnStage, cfg.OnSpan)
	return cmps, scale, err
}
