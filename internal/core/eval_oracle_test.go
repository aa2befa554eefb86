package core_test

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestComparisonMatchesIndependentEvalPass holds RunExperiment's shared
// per-input pass to an oracle that shares nothing: every result must
// encode exactly like an independent one-layout pass of the same (input,
// layout), a sim.EvalFrom run live on its own stream. It covers
// the three layouts, both base heap fits, classification with
// attribution, page tracking, live and replayed streams, and both
// evaluation paths (sequential and the per-input worker pool).
func TestComparisonMatchesIndependentEvalPass(t *testing.T) {
	layouts := []sim.LayoutKind{sim.LayoutNatural, sim.LayoutCCDP, sim.LayoutRandom}
	variants := []struct {
		name string
		set  func(*sim.Options)
	}{
		{"first", func(*sim.Options) {}},
		{"temporal", func(o *sim.Options) { o.HeapFit = "temporal" }},
		{"classify+attribution", func(o *sim.Options) { o.Classify, o.Attribution = true, true }},
		{"pages", func(o *sim.Options) { o.TrackPages = true }},
	}
	// espresso evaluates CCDP with the placement's heap allocator,
	// compress with the base heap fit.
	for _, name := range []string{"espresso", "compress"} {
		w := small(t, name)
		inputs := []workload.Input{w.Train(), w.Test()}
		dir := t.TempDir()
		for _, in := range inputs {
			src, err := sim.NewTraceStore(sim.TraceConfig{Dir: dir}, w, nil).Open(in, sim.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			src.Close()
		}
		for _, v := range variants {
			opts := sim.DefaultOptions()
			v.set(&opts)
			want := map[string][]byte{}
			for _, tc := range []sim.TraceConfig{{}, {Dir: dir, RequireRecorded: true}} {
				for _, par := range []int{1, 4} {
					runOpts := opts
					runOpts.Parallelism = par
					cmp, err := core.RunExperiment(core.Experiment{
						Workload: w, Options: runOpts, Layouts: layouts, Inputs: inputs, Trace: tc,
					})
					if err != nil {
						t.Fatal(err)
					}
					for _, in := range inputs {
						for _, kind := range layouts {
							key := in.Label + "/" + string(kind)
							if want[key] == nil {
								oracle, err := sim.EvalFrom(sim.Live(w, in, opts), w.Name(), w.HeapPlacement(), in, kind, cmp.Profile, cmp.Placement, opts, 0)
								if err != nil {
									t.Fatal(err)
								}
								want[key] = sim.EncodeEvalResult(oracle)
							}
							res := cmp.Result(in.Label, kind)
							if res == nil || res.Workload != name || res.Input != in || res.Layout != kind {
								t.Fatalf("%s/%s trace=%v parallel=%d: %s result missing or mislabelled", name, v.name, tc.Enabled(), par, key)
							}
							if got := sim.EncodeEvalResult(res); !bytes.Equal(got, want[key]) {
								t.Fatalf("%s/%s trace=%v parallel=%d: %s diverged from an independent pass:\n--- experiment ---\n%s--- oracle ---\n%s",
									name, v.name, tc.Enabled(), par, key, got, want[key])
							}
						}
					}
				}
			}
		}
	}
}

// TestExperimentDecodesEachInputOnce pins the work a traced default
// experiment does: one replay for the profile and one per input for all
// of its layouts — three streams, not one per (input × layout) unit —
// at either parallelism, while the eval stage still counts every unit.
// With TrackPages a live experiment runs the model three times too: the
// page tracker sizes its window after the pass, so no input is driven
// again to count its references.
func TestExperimentDecodesEachInputOnce(t *testing.T) {
	w := small(t, "gcc")
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel%d", par), func(t *testing.T) {
			mc := metrics.New()
			opts := sim.DefaultOptions()
			opts.Parallelism, opts.Metrics = par, mc
			if _, err := core.RunExperiment(core.Experiment{
				Workload: w, Options: opts, Trace: sim.TraceConfig{Dir: t.TempDir()},
			}); err != nil {
				t.Fatal(err)
			}
			if got := mc.StageCount(metrics.StageReplay); got != 3 {
				t.Errorf("replay stage count = %d, want 3 (profile + one per input)", got)
			}
			if got := mc.StageCount(metrics.StageEval); got != 4 {
				t.Errorf("eval stage count = %d, want 4 (2 inputs × 2 layouts)", got)
			}
		})
		t.Run(fmt.Sprintf("pages/parallel%d", par), func(t *testing.T) {
			cw := countingWorkload{Workload: w, runs: new(atomic.Int32)}
			opts := sim.DefaultOptions()
			opts.Parallelism, opts.TrackPages = par, true
			cmp, err := core.RunExperiment(core.Experiment{Workload: cw, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			if got := cw.runs.Load(); got != 3 {
				t.Errorf("live model runs = %d, want 3 (profile + one per input)", got)
			}
			if res := cmp.Result(w.Test().Label, sim.LayoutNatural); res.TotalPages == 0 || res.WorkingSet == 0 {
				t.Errorf("test input tracked no pages: total %d, working set %g", res.TotalPages, res.WorkingSet)
			}
		})
	}
}

// countingWorkload counts the live runs of its model.
type countingWorkload struct {
	workload.Workload
	runs *atomic.Int32
}

func (c countingWorkload) Run(in workload.Input, p *workload.Prog) {
	c.runs.Add(1)
	c.Workload.Run(in, p)
}
