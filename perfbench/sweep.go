package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// sweepSetups is how many times a sweep run fills an empty trace store.
const sweepSetups = 5

// sweepLimit is the latency limit of one sweep cell, about four times the
// high step's p50_ms measured when the benchmark was sized.
const sweepLimit = 2000 * time.Millisecond

// sweepGrid is geometry-heavy and profile-light: 2 sizes x 4
// associativities x 2 line sizes x 2 layouts = 32 cells in 17 layout
// groups, with one profile per cache size broadcast off one train decode.
// The seed orders each axis; results are keyed by cell, not position.
func sweepGrid(seed uint64) sweep.Grid {
	g := sweep.Grid{
		Sizes:   []int64{8192, 16384},
		Assocs:  []int{1, 2, 4, 8},
		Blocks:  []int64{32, 64},
		Layouts: []string{"natural", "ccdp"},
	}
	r := rand.New(rand.NewSource(int64(seed)))
	r.Shuffle(len(g.Sizes), func(i, j int) { g.Sizes[i], g.Sizes[j] = g.Sizes[j], g.Sizes[i] })
	r.Shuffle(len(g.Assocs), func(i, j int) { g.Assocs[i], g.Assocs[j] = g.Assocs[j], g.Assocs[i] })
	r.Shuffle(len(g.Blocks), func(i, j int) { g.Blocks[i], g.Blocks[j] = g.Blocks[j], g.Blocks[i] })
	r.Shuffle(len(g.Layouts), func(i, j int) { g.Layouts[i], g.Layouts[j] = g.Layouts[j], g.Layouts[i] })
	return g
}

// sweepRequest is the sweep over w's stored traces at scale.
func sweepRequest(w workload.Workload, scale float64, dir string, parallel int, seed uint64) sweep.Request {
	in := benchsuite.ScaledInputs(w, scale)
	opts := sim.DefaultOptions()
	opts.Parallelism = parallel
	return sweep.Request{
		Workload: w,
		Train:    in[0],
		Test:     in[1],
		Grid:     sweepGrid(seed),
		Options:  opts,
		Trace:    sim.TraceConfig{Dir: dir, RequireRecorded: true},
	}
}

// sweepJobs are the two traces a sweep replays.
func sweepJobs(w workload.Workload, scale float64) []storeJob {
	in := benchsuite.ScaledInputs(w, scale)
	return []storeJob{{w, in[0]}, {w, in[1]}}
}

// sweepOnce prepares and runs the shared engine once, timing both.
func sweepOnce(req sweep.Request, parallel int) (*sweep.Result, time.Duration, error) {
	t0 := time.Now()
	p, err := sweep.NewPrep(req)
	if err != nil {
		return nil, 0, err
	}
	res, err := p.RunShared(parallel)
	if err != nil {
		return nil, 0, err
	}
	return res, time.Since(t0), nil
}

// runSweep is the decode-once engine over gcc on the sweep grid.
func runSweep(cfg config) (*outcome, error) {
	out := newOutcome()
	w, err := workload.Get("gcc")
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		return out, traceSweep(cfg, out, w)
	}
	var (
		setups []float64
		dir    string
	)
	setupSteal := startSteal()
	for i := 0; i < sweepSetups; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(cfg.Work, fmt.Sprintf("sweep-store-%d", i))
		d, err := recordStore(dir, sweepJobs(w, cfg.Scale), cfg.Parallel)
		if err != nil {
			return nil, fmt.Errorf("sweep set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	// The low step (the engine on one worker) and the high step alternate
	// run by run, so both see the same stretch of the machine's time.
	// Every cell of a shared run completes when the run does, so a cell's
	// latency is its run's wall time.
	var (
		low, high    = reps{}, reps{}
		replay       = reps{}
		first        *sweep.Result
		raw          []float64
		total        time.Duration
		within, runs int
		liveSetup    = setupSteal.live()
		steal        = startSteal()
	)
	for start := time.Now(); time.Since(start).Seconds() < cfg.Seconds || len(raw) < cfg.MinSamples; runs++ {
		res, wall, err := sweepOnce(sweepRequest(w, cfg.Scale, dir, 1, cfg.Seed), 1)
		if err != nil {
			return nil, err
		}
		checkSweep(cfg, out, res)
		low.add("run", ms(wall))
		if first == nil {
			first = res
		}
		res, wall, err = sweepOnce(sweepRequest(w, cfg.Scale, dir, cfg.Parallel, cfg.Seed), cfg.Parallel)
		if err != nil {
			return nil, err
		}
		checkSweep(cfg, out, res)
		high.add("run", ms(wall))
		replay.add("run", float64(res.WallNanos-res.PrepNanos)/1e6)
		for range res.Cells {
			raw = append(raw, ms(wall))
			if wall <= sweepLimit {
				within++
			}
		}
		total += wall
	}
	live := steal.live()
	var events uint64
	for _, c := range first.Cells {
		events += streamEvents(c.Eval.Counter)
	}
	best := high.q1("run") / 1e3 * live
	replayS := replay.q1("run") / 1e3 * live
	out.set("setup_s", median(setups)*liveSetup, "s")
	out.set("events_per_s", float64(events)/replayS, "events/s")
	out.set("cells_per_s", float64(len(first.Cells))/best, "cells/s")
	out.set("miss_reduction_pct", sweepReduction(first), "%")
	setLatency(out, high, low, live, live, raw)
	out.set("goodput_qps", float64(within)/(total.Seconds()*live), "jobs/s")
	out.set("peak_rss_mb", peakRSSMiB(), "MiB")
	setSweepCounts(out, first)
	out.note("setups %s s; %d runs at -parallel 1 (low step) alternating with %d at -parallel %d (high step); latency limit %v",
		fmtList(setups), runs, runs, cfg.Parallel, sweepLimit)
	out.note("timings are lower quartiles over each step's runs; events_per_s is every cell's simulated events over the replay phase (RunShared's wall less its prep), cells_per_s the cells over NewPrep+RunShared")
	out.note("p50_ms is the high step's run wall, the same measurement as cells_per_s; goodput_qps is the mean rate of that step's cells within the limit")
	out.note("live share of busy CPU time (1 - stolen) applied: set-up %.4f, both steps %.4f; unscaled: setup_s %.6f, high-step run %.3f ms, replay %.3f ms",
		liveSetup, live, median(setups), high.q1("run"), replay.q1("run"))
	return out, nil
}

// sweepReduction is the mean miss-rate reduction of CCDP over natural
// across the grid's geometries.
func sweepReduction(res *sweep.Result) float64 {
	nat := map[string]float64{}
	ccdp := map[string]float64{}
	for _, c := range res.Cells {
		geom := c.Cell.Cache.String()
		switch c.Cell.Layout {
		case sim.LayoutNatural:
			nat[geom] = c.MissRatePct()
		case sim.LayoutCCDP:
			ccdp[geom] = c.MissRatePct()
		}
	}
	var sum float64
	n := 0
	for g, m := range nat {
		if c, ok := ccdp[g]; ok && m > 0 {
			sum += 100 * (m - c) / m
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// setSweepCounts records a sweep's exact counts.
func setSweepCounts(out *outcome, res *sweep.Result) {
	var acc, miss uint64
	for _, c := range res.Cells {
		acc += c.Accesses()
		miss += c.Misses()
	}
	out.counts["sweep.cells"] = uint64(len(res.Cells))
	out.counts["sweep.groups"] = uint64(res.Groups)
	out.counts["sweep.profiles_broadcast"] = uint64(res.ProfilesBroadcast)
	out.counts["sweep.profiles_deduped"] = uint64(res.ProfilesDeduped)
	out.counts["sweep.events"] = res.Events
	out.counts["sweep.sim_accesses"] = acc
	out.counts["sweep.sim_misses"] = miss
}

// checkSweep compares every cell with the frozen counts (or freezes
// them).
func checkSweep(cfg config, out *outcome, res *sweep.Result) {
	exp := cfg.Expected
	if cfg.Freeze {
		exp.SweepScale = cfg.Scale
		exp.Sweep = map[string]passCounts{}
	} else if err := scaleMatches(exp.SweepScale, cfg.Scale); err != nil {
		out.check(false, "sweep: %v", err)
		return
	}
	for _, c := range res.Cells {
		got := passCounts{Events: streamEvents(c.Eval.Counter), Accesses: c.Accesses(), Misses: c.Misses()}
		key := c.Cell.Label()
		if cfg.Freeze {
			exp.Sweep[key] = got
			out.check(true, "")
			continue
		}
		want, ok := exp.Sweep[key]
		out.check(ok && got == want, "sweep cell %s: got %+v, want %+v", key, got, want)
	}
}

// sweepRung is the ladder's sweep layer: the engine at -parallel 1 over
// w's traces at scale, checked cell by cell against the independent
// per-cell replays with sweep.DiffResults.
func sweepRung(cfg config, out *outcome, w workload.Workload, scale float64) error {
	dir := filepath.Join(cfg.Work, "sweep-rung-store")
	if _, err := recordStore(dir, sweepJobs(w, scale), cfg.Parallel); err != nil {
		return err
	}
	p, err := sweep.NewPrep(sweepRequest(w, scale, dir, 1, cfg.Seed))
	if err != nil {
		return err
	}
	res, err := p.RunShared(1)
	if err != nil {
		return err
	}
	ind, err := p.RunIndependent(cfg.Parallel)
	if err != nil {
		return err
	}
	diff := sweep.DiffResults(res, ind)
	out.check(diff == nil, "sweep: shared engine differs from independent replays: %v", diff)
	out.set("sweep.prep_s", float64(res.PrepNanos)/1e9, "s")
	out.set("sweep.replay_s", float64(res.WallNanos-res.PrepNanos)/1e9, "s")
	out.set("sweep.decode_share_pct", res.DecodeSharePct(), "%")
	out.set("sweep.peak_prep_bytes", float64(res.PeakPrepBytes), "B")
	out.set("sweep.groups", float64(res.Groups), "count")
	out.set("sweep.profiles_deduped", float64(res.ProfilesDeduped), "count")
	out.counts["sweep.groups"] = uint64(res.Groups)
	out.counts["sweep.profiles_deduped"] = uint64(res.ProfilesDeduped)
	return nil
}

// traceSweep is the sweep's traced run: the ladder over gcc, then one
// traced run of the engine at -parallel 1 with spans around NewPrep and
// RunShared, split by the engine's own decode and prep timings.
func traceSweep(cfg config, out *outcome, w workload.Workload) error {
	in := benchsuite.ScaledInputs(w, cfg.Scale)
	cost, err := ladder(out, cfg.Work, []*ladderTrace{{w: w, train: in[0], test: in[1]}})
	if err != nil {
		return err
	}
	if err := sweepRung(cfg, out, w, cfg.Scale); err != nil {
		return err
	}
	dir := filepath.Join(cfg.Work, "sweep-rung-store")
	req := sweepRequest(w, cfg.Scale, dir, 1, cfg.Seed)
	mc := metrics.New()
	req.Options.Metrics = mc
	var (
		sp  spans
		p   *sweep.Prep
		res *sweep.Result
	)
	t0 := time.Now()
	if err := sp.do("prep", func() error { p, err = sweep.NewPrep(req); return err }); err != nil {
		return err
	}
	if err := sp.do("run", func() error { res, err = p.RunShared(1); return err }); err != nil {
		return err
	}
	wall := time.Since(t0)
	checkSweep(cfg, out, res)
	place, _ := mc.Snapshot().Stage(metrics.StagePlace.String())
	trainDecode := float64(cost.trainEvents) * cost.replay
	setShares(out, wall, map[string]float64{
		"source":  float64(res.DecodeNanos) + trainDecode,
		"profile": float64(res.PrepNanos) - float64(place.TotalNanos) - trainDecode,
		"place":   float64(place.TotalNanos),
		"eval":    float64(res.WallNanos - res.PrepNanos - res.DecodeNanos),
		"queue":   0,
	}, sp.sum())
	setSweepCounts(out, res)
	if err := serverRung(cfg, out, []workload.Workload{w}); err != nil {
		return err
	}
	return setObs(out, w, cfg.Scale)
}
