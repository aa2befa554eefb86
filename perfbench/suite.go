package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/workload"
)

// suiteSetups is how many times a suite run fills an empty trace store;
// setup_s is the median.
const suiteSetups = 3

// suiteLimit is the latency limit of one suite evaluation pass, about
// four times the sequential median measured when the benchmark was sized.
const suiteLimit = 300 * time.Millisecond

// suiteRun is one execution of the whole suite.
type suiteRun struct {
	wall  time.Duration
	spans []stageSpan
	cmps  []*core.Comparison
}

// stageSpan is one completed pipeline stage of a suite run. Its id names
// the work: workload/stage for profile and place, workload/eval/input/
// layout for an evaluation pass.
type stageSpan struct {
	id   string
	eval bool
	ms   float64
}

// runSuite is the paper's Table 2/4 experiment: the nine programs,
// natural and CCDP layouts, train and test inputs, replayed from a trace
// store the set-up fills. The paper fixes the experiment's inputs, so the
// seed only orders the set-up's recordings. The measured runs keep the
// programs in their canonical order: the order decides how the programs
// pair up on the workers, which is scheduling, not input.
func runSuite(cfg config) (*outcome, error) {
	out := newOutcome()
	ws := workload.All()
	if cfg.Trace {
		return out, traceSuite(cfg, out, ws)
	}
	var (
		setups []float64
		dir    string
	)
	setupSteal := startSteal()
	for i := 0; i < suiteSetups; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(cfg.Work, fmt.Sprintf("suite-store-%d", i))
		d, err := recordStore(dir, storeInputs(shuffled(cfg.Seed), cfg.Scale), cfg.Parallel)
		if err != nil {
			return nil, fmt.Errorf("suite set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	liveSetup := setupSteal.live()
	tc := sim.TraceConfig{Dir: dir, RequireRecorded: true}

	// Low step: one pass at a time, three times; the first is also the
	// warm-up.
	low := reps{}
	var first *suiteRun
	lowSteal := startSteal()
	for i := 0; i < 3; i++ {
		r, err := suiteIteration(cfg, ws, 1, tc)
		if err != nil {
			return nil, err
		}
		checkSuite(cfg, out, r)
		for _, sp := range r.spans {
			if sp.eval {
				low.add(sp.id, sp.ms)
			}
		}
		if first == nil {
			first = r
		}
	}

	liveLow := lowSteal.live()

	red := benchsuite.AvgReduction(first.cmps, benchsuite.TestInput)
	highSteal := startSteal()
	var (
		high         = reps{}
		raw          []float64
		wall         time.Duration
		within, runs int
	)
	for start := time.Now(); time.Since(start).Seconds() < cfg.Seconds || len(raw) < cfg.MinSamples; runs++ {
		r, err := suiteIteration(cfg, ws, cfg.Parallel, tc)
		if err != nil {
			return nil, err
		}
		checkSuite(cfg, out, r)
		got := benchsuite.AvgReduction(r.cmps, benchsuite.TestInput)
		out.check(got == red, "suite: miss reduction %.6f%% differs from the first run's %.6f%%", got, red)
		wall += r.wall
		for _, sp := range r.spans {
			high.add(sp.id, sp.ms)
			if sp.eval {
				raw = append(raw, sp.ms)
				if sp.ms <= ms(suiteLimit) {
					within++
				}
			}
		}
	}

	liveHigh := highSteal.live()

	// Throughput divides by the summed lower quartiles of the passes it
	// counts.
	var (
		events       uint64
		evMs, evalMs float64
		evals        = reps{}
	)
	for id, n := range spanEvents(first.cmps) {
		events += n
		evMs += high.q1(id)
	}
	for _, sp := range first.spans {
		if sp.eval {
			evals[sp.id] = high[sp.id]
			evalMs += high.q1(sp.id)
		}
	}
	out.set("setup_s", median(setups)*liveSetup, "s")
	out.set("events_per_s", float64(events)/(evMs/1e3*liveHigh), "events/s")
	out.set("cells_per_s", float64(len(evals))/(evalMs/1e3*liveHigh), "cells/s")
	out.set("miss_reduction_pct", red, "%")
	setLatency(out, evals, low, liveHigh, liveLow, raw)
	out.set("goodput_qps", float64(within)/(wall.Seconds()*liveHigh), "jobs/s")
	out.set("peak_rss_mb", peakRSSMiB(), "MiB")
	out.counts["suite.events_per_run"] = events
	out.counts["suite.eval_passes_per_run"] = uint64(len(evals))
	out.counts["suite.sim_accesses_per_run"], out.counts["suite.sim_misses_per_run"] = simTotals(first.cmps)
	out.note("setups %s s; low step: 3 runs at -parallel 1; high step: %d runs at -parallel %d; latency limit %v",
		fmtList(setups), runs, cfg.Parallel, suiteLimit)
	out.note("timings are lower quartiles over each pass's repetitions; events_per_s and cells_per_s divide by the passes' summed lower quartiles")
	out.note("live share of CPU time (1 - stolen) applied: set-up %.4f, low step %.4f, high step %.4f", liveSetup, liveLow, liveHigh)
	return out, nil
}

// spanEvents maps each event-consuming stage's id to the trace events it
// reads: the profiling pass and every evaluation pass.
func spanEvents(cmps []*core.Comparison) map[string]uint64 {
	ev := map[string]uint64{}
	for _, c := range cmps {
		name := c.Workload.Name()
		ev[name+"/"+metrics.StageProfile.String()] = streamEvents(c.Profile.Counter)
		for in, byLayout := range c.Results {
			for layout, res := range byLayout {
				ev[name+"/"+metrics.StageEval.String()+"/"+in+"/"+string(layout)] = streamEvents(res.Counter)
			}
		}
	}
	return ev
}

// suiteIteration runs the suite once at the given parallelism.
func suiteIteration(cfg config, ws []workload.Workload, parallel int, tc sim.TraceConfig) (*suiteRun, error) {
	var (
		mu    sync.Mutex
		spans []stageSpan
	)
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name()
	}
	bc := benchsuite.Config{
		Scale:       cfg.Scale,
		Workloads:   names,
		Parallelism: parallel,
		Trace:       tc,
		OnSpan: func(wname string, st metrics.Stage, label string, _ time.Time, wall time.Duration) {
			id := wname + "/" + st.String()
			if label != "" {
				id += "/" + label
			}
			mu.Lock()
			spans = append(spans, stageSpan{id: id, eval: st == metrics.StageEval, ms: ms(wall)})
			mu.Unlock()
		},
	}
	t0 := time.Now()
	cmps, _, err := bc.Run()
	if err != nil {
		return nil, fmt.Errorf("suite: %w", err)
	}
	return &suiteRun{wall: time.Since(t0), spans: spans, cmps: cmps}, nil
}

// checkSuite compares every evaluation pass of a run with the frozen
// counts (or freezes them).
func checkSuite(cfg config, out *outcome, r *suiteRun) {
	for _, c := range r.cmps {
		for _, byLayout := range c.Results {
			for _, res := range byLayout {
				checkPass(cfg, out, c.Workload.Name(), res)
			}
		}
	}
}

// checkPass compares one suite evaluation pass with the frozen counts.
func checkPass(cfg config, out *outcome, prog string, res *sim.EvalResult) {
	got := passCounts{Events: streamEvents(res.Counter), Accesses: res.Stats.Accesses, Misses: res.Stats.Misses}
	in, layout := res.Input.Label, string(res.Layout)
	exp := cfg.Expected
	if cfg.Freeze {
		exp.SuiteScale = cfg.Scale
		if exp.Suite == nil {
			exp.Suite = map[string]map[string]map[string]passCounts{}
		}
		if exp.Suite[prog] == nil {
			exp.Suite[prog] = map[string]map[string]passCounts{}
		}
		if exp.Suite[prog][in] == nil {
			exp.Suite[prog][in] = map[string]passCounts{}
		}
		exp.Suite[prog][in][layout] = got
		out.check(true, "")
		return
	}
	if err := scaleMatches(exp.SuiteScale, cfg.Scale); err != nil {
		out.check(false, "suite: %v", err)
		return
	}
	want, ok := exp.Suite[prog][in][layout]
	out.check(ok && got == want, "suite %s/%s/%s: got %+v, want %+v", prog, in, layout, got, want)
}

// simTotals sums the simulated accesses and misses of a suite run.
func simTotals(cmps []*core.Comparison) (acc, miss uint64) {
	for _, c := range cmps {
		for _, byLayout := range c.Results {
			for _, res := range byLayout {
				acc += res.Stats.Accesses
				miss += res.Stats.Misses
			}
		}
	}
	return acc, miss
}

// traceSuite is the suite's traced run: the ladder over the nine
// programs, then one sequential pass of the suite through the public
// sim calls core.RunExperiment makes, each call wrapped in a span.
func traceSuite(cfg config, out *outcome, ws []workload.Workload) error {
	dir := filepath.Join(cfg.Work, "suite-store")
	if _, err := recordStore(dir, storeInputs(ws, cfg.Scale), cfg.Parallel); err != nil {
		return err
	}
	var traces []*ladderTrace
	for _, w := range sortedByName(ws) {
		traces = append(traces, &ladderTrace{w: w, train: w.Train(), test: benchsuite.ScaledInputs(w, cfg.Scale)[1]})
	}
	cost, err := ladder(out, cfg.Work, traces)
	if err != nil {
		return err
	}

	var sp spans
	var profEv, evalEv uint64
	opts := sim.DefaultOptions()
	t0 := time.Now()
	for _, w := range ws {
		ts := sim.NewTraceStore(sim.TraceConfig{Dir: dir, RequireRecorded: true}, w, nil)
		var (
			src sim.EventStream
			pr  *sim.ProfileResult
			err error
		)
		if err := sp.do("open", func() error { src, err = ts.Open(w.Train(), opts); return err }); err != nil {
			return err
		}
		if err := sp.do("profile", func() error { pr, err = sim.ProfileFrom(src, opts); return err }); err != nil {
			return err
		}
		profEv += streamEvents(pr.Counter)
		var pm *placement.Map
		if err := sp.do("place", func() error { pm, err = sim.Place(w, pr, opts); return err }); err != nil {
			return err
		}
		for _, in := range benchsuite.ScaledInputs(w, cfg.Scale) {
			for _, kind := range []sim.LayoutKind{sim.LayoutNatural, sim.LayoutCCDP} {
				if err := sp.do("open", func() error { src, err = ts.Open(in, opts); return err }); err != nil {
					return err
				}
				var res *sim.EvalResult
				err := sp.do("eval", func() error {
					res, err = sim.EvalFrom(src, w.Name(), w.HeapPlacement(), in, kind, pr, pm, opts, 0)
					return err
				})
				if err != nil {
					return err
				}
				evalEv += streamEvents(res.Counter)
				checkPass(cfg, out, w.Name(), res)
			}
		}
	}
	wall := time.Since(t0)
	srcT := float64(sp.total["open"]) + float64(profEv+evalEv)*cost.replay
	setShares(out, wall, map[string]float64{
		"source":  srcT,
		"profile": float64(sp.total["profile"]) - float64(profEv)*cost.replay,
		"place":   float64(sp.total["place"]),
		"eval":    float64(sp.total["eval"]) - float64(evalEv)*cost.replay,
		"queue":   0,
	}, sp.sum())
	out.counts["suite.traced_events"] = profEv + evalEv

	gcc, err := workload.Get("gcc")
	if err != nil {
		return err
	}
	if err := sweepRung(cfg, out, gcc, cfg.Scale); err != nil {
		return err
	}
	if err := serverRung(cfg, out, ws); err != nil {
		return err
	}
	return setObs(out, gcc, cfg.Scale)
}

// setShares sets each share.*_pct as a share of wall, and
// core.residue_pct as the part of wall no span covers.
func setShares(out *outcome, wall time.Duration, parts map[string]float64, covered time.Duration) {
	for _, k := range []string{"source", "profile", "place", "eval", "queue"} {
		out.set("share."+k+"_pct", 100*parts[k]/float64(wall), "%")
	}
	out.set("core.residue_pct", 100*float64(wall-covered)/float64(wall), "%")
}

// setObs sets obs.overhead_pct from one program's experiment.
func setObs(out *outcome, w workload.Workload, scale float64) error {
	pct, err := obsOverhead(w, scale)
	if err != nil {
		return err
	}
	out.set("obs.overhead_pct", pct, "%")
	return nil
}

// spans accumulates the wall time of named calls made one at a time.
type spans struct {
	total map[string]time.Duration
}

func (s *spans) do(name string, fn func() error) error {
	if s.total == nil {
		s.total = map[string]time.Duration{}
	}
	t0 := time.Now()
	err := fn()
	s.total[name] += time.Since(t0)
	return err
}

func (s *spans) sum() time.Duration {
	var t time.Duration
	for _, d := range s.total {
		t += d
	}
	return t
}

// storeJob is one trace a set-up records.
type storeJob struct {
	w  workload.Workload
	in workload.Input
}

// storeInputs lists every trace the suite pipeline opens: the unscaled
// train input the profiling pass reads plus the scaled evaluation inputs.
func storeInputs(ws []workload.Workload, scale float64) []storeJob {
	var jobs []storeJob
	for _, w := range ws {
		seen := map[workload.Input]bool{}
		for _, in := range append([]workload.Input{w.Train()}, benchsuite.ScaledInputs(w, scale)...) {
			if !seen[in] {
				seen[in] = true
				jobs = append(jobs, storeJob{w, in})
			}
		}
	}
	return jobs
}

// recordStore records every job's trace into the store at dir with
// parallel workers, and returns the wall time it took.
func recordStore(dir string, jobs []storeJob, parallel int) (time.Duration, error) {
	tasks := make([]exec.Task[struct{}], len(jobs))
	for i, j := range jobs {
		tasks[i] = func(context.Context, *metrics.Collector) (struct{}, error) {
			src, err := sim.NewTraceStore(sim.TraceConfig{Dir: dir}, j.w, nil).Open(j.in, sim.DefaultOptions())
			if err != nil {
				return struct{}{}, fmt.Errorf("record %s/%s: %w", j.w.Name(), j.in.Label, err)
			}
			return struct{}{}, src.Close()
		}
	}
	t0 := time.Now()
	_, err := exec.Map(context.Background(), parallel, nil, tasks)
	return time.Since(t0), err
}

// shuffled returns the nine programs in a seeded order.
func shuffled(seed uint64) []workload.Workload {
	ws := sortedByName(workload.All())
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	return ws
}

func sortedByName(ws []workload.Workload) []workload.Workload {
	s := append([]workload.Workload(nil), ws...)
	sort.Slice(s, func(i, j int) bool { return s[i].Name() < s[j].Name() })
	return s
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}
