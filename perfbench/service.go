package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

const (
	// serviceLowQPS and serviceHighQPS are the open loop's two steps,
	// about 13% and 65% of the capacity of a 2-worker ccdpd on 2 CPUs.
	// At the low rate about a quarter of the jobs overlap another, so
	// the low step's median is an unqueued job's latency.
	serviceLowQPS  = 2.0
	serviceHighQPS = 10.0
	// serviceLimit is the latency limit, about four times the low
	// step's median measured when the benchmark was sized.
	serviceLimit = 300 * time.Millisecond
	// pollInterval is the client's status-poll cadence.
	pollInterval = 5 * time.Millisecond
	// bootsPerRound is how many times each of set-up's three rounds
	// boots a server and serves its first job.
	bootsPerRound = 3
	// firstJob is the program of the eval job each boot serves first.
	firstJob = "gcc"
	// cycleLen is the job mix's period: each program once as an eval
	// and once as a place job, plus two explain jobs.
	cycleLen = 20
)

// svc is a running in-process ccdpd and a client capped at nproc
// connections.
type svc struct {
	srv    *server.Server
	lis    *server.Graceful
	base   string
	client *http.Client
}

// boot starts a server with the default configuration and waits until
// /healthz answers ok.
func boot(parallel int) (*svc, error) {
	srv := server.New(server.Config{Parallelism: parallel})
	lis, err := server.Listen("127.0.0.1:0", srv.Handler())
	if err != nil {
		srv.Close(time.Second)
		return nil, err
	}
	s := &svc{
		srv:  srv,
		lis:  lis,
		base: "http://" + lis.Addr(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     parallel,
			MaxIdleConnsPerHost: parallel,
		}},
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		var h server.Health
		if err := s.getJSON(context.Background(), "/healthz", &h); err == nil && h.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("server did not become healthy")
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// bootServed boots a server, serves its first job — an eval of firstJob
// submitted with ?wait=true — fetches the result and closes the server.
// The time is what a user waits from starting ccdpd to holding a first
// result; the result bytes are returned for the output check.
func bootServed(parallel int, scale float64) ([]byte, time.Duration, error) {
	t0 := time.Now()
	s, err := boot(parallel)
	if err != nil {
		return nil, 0, err
	}
	defer s.close()
	body, err := json.Marshal(server.JobRequest{Kind: server.KindEval, Workload: firstJob, Scale: scale})
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.client.Post(s.base+"/v1/jobs?wait=true", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("first job: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var st server.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, 0, err
	}
	if st.State != server.StateDone {
		return nil, 0, fmt.Errorf("first job ended %s: %s", st.State, st.Error)
	}
	result, _, err := s.get(context.Background(), "/v1/jobs/"+st.ID+"/result")
	if err != nil {
		return nil, 0, err
	}
	return result, time.Since(t0), nil
}

func (s *svc) close() {
	_ = s.lis.Close(5 * time.Second)
	s.srv.Close(5 * time.Second)
	s.client.CloseIdleConnections()
}

func (s *svc) getJSON(ctx context.Context, path string, v any) error {
	b, _, err := s.get(ctx, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// get fetches path and fails on any status but 200.
func (s *svc) get(ctx context.Context, path string) ([]byte, time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return b, time.Since(t0), nil
}

// plannedJob is one entry of the open loop's schedule.
type plannedJob struct {
	kind    server.JobKind
	program string
	at      time.Duration // offset from the schedule's start
	high    bool          // part of the high step
}

// schedule lays out the low step, a half-second gap, then the high step.
// Arrivals in each step are Poisson at the step's rate, conditioned on
// the step's job count: the n send times are drawn uniformly over the
// step's span n/rate and sorted, so jobs bunch and queue as under random
// traffic while each step's mean rate is exact. The seed draws the send
// times and orders the jobs inside each cycle of cycleLen; every cycle
// holds the same mix, so both steps' mixes are independent of the seed.
func schedule(seed uint64, nLow, nHigh int, lowQPS, highQPS float64) []plannedJob {
	progs := sortedByName(workload.All())
	r := rand.New(rand.NewSource(int64(seed)))
	var mix []plannedJob
	for c := 0; len(mix) < nLow+nHigh; c++ {
		var cycle []plannedJob
		for _, w := range progs {
			cycle = append(cycle,
				plannedJob{kind: server.KindEval, program: w.Name()},
				plannedJob{kind: server.KindPlace, program: w.Name()})
		}
		for k := 0; k < cycleLen-2*len(progs); k++ {
			cycle = append(cycle, plannedJob{kind: server.KindExplain, program: progs[(c*2+k)%len(progs)].Name()})
		}
		r.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		mix = append(mix, cycle...)
	}
	mix = mix[:nLow+nHigh]
	low := arrivals(r, nLow, stepSpan(nLow, lowQPS))
	high := arrivals(r, nHigh, stepSpan(nHigh, highQPS))
	highStart := highOffset(nLow, lowQPS)
	for i := range mix {
		if i < nLow {
			mix[i].at = low[i]
		} else {
			mix[i].at = highStart + high[i-nLow]
			mix[i].high = true
		}
	}
	return mix
}

// stepSpan is the time n jobs take to arrive at qps.
func stepSpan(n int, qps float64) time.Duration {
	return time.Duration(float64(n) / qps * float64(time.Second))
}

// highOffset is where the high step starts in the schedule: after the
// low step and a half-second gap.
func highOffset(nLow int, lowQPS float64) time.Duration {
	return stepSpan(nLow, lowQPS) + 500*time.Millisecond
}

// arrivals draws n sorted send times uniformly over [0, span).
func arrivals(r *rand.Rand, n int, span time.Duration) []time.Duration {
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(r.Float64() * float64(span))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// servicePlan sizes the two steps from cfg: the low step a quarter of
// -seconds but at least three cycles, the high step -seconds but at least
// cfg.MinSamples jobs, both in whole cycles.
func servicePlan(cfg config) ([]plannedJob, int, int) {
	nLow := stepSize(max(int(math.Ceil(cfg.Seconds/4*cfg.LowQPS)), 3*cycleLen))
	nHigh := stepSize(max(int(math.Ceil(cfg.Seconds*cfg.HighQPS)), cfg.MinSamples))
	return schedule(cfg.Seed, nLow, nHigh, cfg.LowQPS, cfg.HighQPS), nLow, nHigh
}

// stepSize rounds a step's job count up to whole cycles.
func stepSize(n int) int {
	return (n + cycleLen - 1) / cycleLen * cycleLen
}

// jobRun is one job's client-side record.
type jobRun struct {
	plan     plannedJob
	due      time.Time
	late     time.Duration // actual send - scheduled send
	submit   time.Duration // POST round trip
	result   time.Duration // result GET round trip
	latency  time.Duration // scheduled send -> result bytes received
	polls    int
	rejected bool
	err      error
	status   server.JobStatus
	body     []byte
	trace    *server.JobTrace
}

func (r *jobRun) ok() bool { return !r.rejected && r.err == nil }

// job submits one job at its due time, polls it to a terminal state and
// fetches its result (and, when traced, its span tree).
func (s *svc) job(ctx context.Context, pj plannedJob, due time.Time, scale float64, traced bool) *jobRun {
	r := &jobRun{plan: pj, due: due}
	r.late = time.Since(due)
	body, err := json.Marshal(server.JobRequest{Kind: pj.kind, Workload: pj.program, Scale: scale})
	if err != nil {
		r.err = err
		return r
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.submit = time.Since(t0)
	switch {
	case err != nil:
		r.err = err
		return r
	case resp.StatusCode == http.StatusServiceUnavailable:
		r.rejected = true
		return r
	case resp.StatusCode != http.StatusAccepted:
		r.err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
		return r
	}
	if err := json.Unmarshal(b, &r.status); err != nil {
		r.err = err
		return r
	}
	id := r.status.ID
	for !r.status.State.Terminal() {
		select {
		case <-ctx.Done():
			r.err = ctx.Err()
			return r
		case <-time.After(pollInterval):
		}
		r.polls++
		if err := s.getJSON(ctx, "/v1/jobs/"+id, &r.status); err != nil {
			r.err = err
			return r
		}
	}
	if r.status.State != server.StateDone {
		r.err = fmt.Errorf("job %s ended %s: %s", id, r.status.State, r.status.Error)
		return r
	}
	r.body, r.result, r.err = s.get(ctx, "/v1/jobs/"+id+"/result")
	r.latency = time.Since(due)
	if traced && r.err == nil {
		var jt server.JobTrace
		if err := s.getJSON(ctx, "/v1/jobs/"+id+"/trace", &jt); err != nil {
			r.err = err
			return r
		}
		r.trace = &jt
	}
	return r
}

// load runs the schedule open-loop from offset from on: each job is sent
// at its due time whatever the state of earlier ones. It returns the runs
// in schedule order and the peak number of jobs in flight.
func (s *svc) load(plan []plannedJob, from time.Duration, scale float64, traced bool) ([]*jobRun, int) {
	span := plan[len(plan)-1].at - from
	ctx, cancel := context.WithTimeout(context.Background(), span+90*time.Second)
	defer cancel()
	runs := make([]*jobRun, len(plan))
	var (
		wg             sync.WaitGroup
		inflight, peak atomic.Int64
	)
	start := time.Now().Add(20 * time.Millisecond)
	for i, pj := range plan {
		due := start.Add(pj.at - from)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, pj plannedJob, due time.Time) {
			defer wg.Done()
			n := inflight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			runs[i] = s.job(ctx, pj, due, scale, traced)
			inflight.Add(-1)
		}(i, pj, due)
	}
	wg.Wait()
	return runs, int(peak.Load())
}

// direct is one program's experiment run in-process, the reference the
// served results are checked against.
type direct struct {
	cmp    *core.Comparison
	eval   []byte // rendered exactly as an eval job's result
	events uint64 // trace events one job's passes consume
	passes int
}

// directRuns runs each program's experiment the way an eval job does.
func directRuns(scale float64, parallel int) (map[string]*direct, error) {
	out := map[string]*direct{}
	for _, w := range workload.All() {
		opts := sim.DefaultOptions()
		opts.Parallelism = parallel
		cmp, err := core.RunExperiment(core.Experiment{
			Workload: w, Options: opts, Inputs: benchsuite.ScaledInputs(w, scale),
		})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, []*core.Comparison{cmp}); err != nil {
			return nil, err
		}
		d := &direct{cmp: cmp, eval: buf.Bytes(), events: streamEvents(cmp.Profile.Counter)}
		for _, byLayout := range cmp.Results {
			for _, res := range byLayout {
				d.events += streamEvents(res.Counter)
				d.passes++
			}
		}
		out[w.Name()] = d
	}
	return out, nil
}

// checkServed checks every served result: its digest against the frozen
// one for its kind and program, and the first eval result of each
// program byte for byte against the direct run. Refused, failed and
// dropped jobs fail too.
func checkServed(cfg config, out *outcome, runs []*jobRun, ref map[string]*direct) {
	exp := cfg.Expected
	if cfg.Freeze {
		exp.ServiceScale = cfg.ServiceScale
		if exp.Service == nil {
			exp.Service = map[string]string{}
		}
	} else if err := scaleMatches(exp.ServiceScale, cfg.ServiceScale); err != nil {
		out.check(false, "service: %v", err)
		return
	}
	sampled := map[string]bool{}
	for _, r := range runs {
		key := string(r.plan.kind) + "/" + r.plan.program
		switch {
		case r.rejected:
			out.check(false, "service %s: refused (503)", key)
			continue
		case r.err != nil:
			out.check(false, "service %s: %v", key, r.err)
			continue
		}
		sum := sha256.Sum256(r.body)
		digest := hex.EncodeToString(sum[:])
		if cfg.Freeze {
			if _, ok := exp.Service[key]; !ok {
				exp.Service[key] = digest
			}
		}
		out.check(exp.Service[key] == digest, "service %s: result digest %s, want %s", key, digest, exp.Service[key])
		if r.plan.kind == server.KindEval && !sampled[r.plan.program] {
			sampled[r.plan.program] = true
			out.check(bytes.Equal(r.body, ref[r.plan.program].eval),
				"service %s: served bytes differ from a direct core.RunExperiment", key)
		}
	}
}

// runService is an in-process ccdpd under the open loop. Each set-up
// round's and each step's timings are scaled by its live share: a job's
// latency is almost all CPU-bound run time (the 5 ms polls add a few
// percent), and the busy-tick share is not diluted by the loop's idle
// time. goodput_qps counts jobs against the limit unscaled.
func runService(cfg config) (*outcome, error) {
	out := newOutcome()
	if cfg.Trace {
		return out, traceService(cfg, out)
	}
	// Set-up is timed in three rounds, before, between and after the
	// steps, so its median samples the machine over the whole run.
	var (
		boots, rawBoots []float64
		firsts          [][]byte
	)
	setUp := func() error {
		steal := startSteal()
		var round []float64
		for i := 0; i < bootsPerRound; i++ {
			first, d, err := bootServed(cfg.Parallel, cfg.ServiceScale)
			if err != nil {
				return fmt.Errorf("service set-up: %w", err)
			}
			round = append(round, d.Seconds())
			firsts = append(firsts, first)
		}
		live := steal.live()
		for _, d := range round {
			rawBoots = append(rawBoots, d)
			boots = append(boots, d*live)
		}
		return nil
	}
	if err := setUp(); err != nil {
		return nil, err
	}
	plan, nLow, nHigh := servicePlan(cfg)
	s, err := boot(cfg.Parallel)
	if err != nil {
		return nil, err
	}
	lowSteal := startSteal()
	lowRuns, lowPeak := s.load(plan[:nLow], 0, cfg.ServiceScale, false)
	liveLow := lowSteal.live()
	if err := setUp(); err != nil {
		s.close()
		return nil, err
	}
	highSteal := startSteal()
	highRuns, peak := s.load(plan[nLow:], highOffset(nLow, cfg.LowQPS), cfg.ServiceScale, false)
	live := highSteal.live()
	s.close()
	if err := setUp(); err != nil {
		return nil, err
	}
	runs := append(lowRuns, highRuns...)
	peak = max(peak, lowPeak)

	ref, err := directRuns(cfg.ServiceScale, cfg.Parallel)
	if err != nil {
		return nil, err
	}
	for _, b := range firsts {
		runs = append(runs, &jobRun{plan: plannedJob{kind: server.KindEval, program: firstJob}, body: b})
	}
	checkServed(cfg, out, runs, ref)
	runs = runs[:len(plan)]

	var (
		lowLat, highLat    []float64
		runTime            = reps{}
		late, queue        []float64
		highStart, highEnd time.Time
		within, rejected   int
	)
	for _, r := range runs {
		late = append(late, ms(r.late))
		if r.rejected {
			rejected++
		}
		if r.plan.high {
			if highStart.IsZero() || r.due.Before(highStart) {
				highStart = r.due
			}
			if end := r.due.Add(r.latency); end.After(highEnd) {
				highEnd = end
			}
		}
		if !r.ok() {
			continue
		}
		if !r.plan.high {
			lowLat = append(lowLat, ms(r.latency))
			continue
		}
		highLat = append(highLat, ms(r.latency))
		id := string(r.plan.kind) + "/" + r.plan.program
		runTime.add(id, float64(r.status.DoneNs-r.status.StartedNs)/1e6)
		if r.latency <= serviceLimit {
			within++
		}
		queue = append(queue, float64(r.status.StartedNs-r.status.SubmittedNs)/1e6)
	}
	// Throughput per busy second: each job type's trace events and
	// evaluation passes over its lower-quartile server run time, net of
	// the high step's stolen time.
	var events, passes, runMs float64
	for id := range runTime {
		d := ref[id[strings.Index(id, "/")+1:]]
		events += float64(d.events)
		passes += float64(d.passes)
		runMs += runTime.q1(id)
	}
	// The high step's window runs from its first scheduled send to its
	// last result, so a backlog that drains late lowers goodput.
	highDur := highEnd.Sub(highStart).Seconds()
	var red float64
	for _, d := range ref {
		red += d.cmp.Reduction(benchsuite.TestInput)
	}
	out.set("setup_s", median(boots), "s")
	out.set("events_per_s", events/(runMs/1e3*live), "events/s")
	out.set("cells_per_s", passes/(runMs/1e3*live), "cells/s")
	out.set("miss_reduction_pct", red/float64(len(ref)), "%")
	out.set("p50_ms", median(highLat)*live, "ms")
	out.set("p50_ms_low", median(lowLat)*liveLow, "ms")
	out.set("goodput_qps", float64(within)/highDur, "jobs/s")
	out.set("peak_rss_mb", peakRSSMiB(), "MiB")
	setServiceCounts(out, plan, ref)
	noteTail(out, "high-step", highLat)
	lateP95, _ := percentile(late, 0.95)
	lateP99, lateBeyond := percentile(late, 0.99)
	qP50, _ := percentile(queue, 0.50)
	qP95, qBeyond := percentile(queue, 0.95)
	out.note("set-up: %d boots, a third before, between and after the steps, each to /healthz ok and a first %s eval job's result: %s s", len(rawBoots), firstJob, fmtList(rawBoots))
	out.note("open loop: low step %d jobs at %g/s, high step %d jobs at %g/s, Poisson arrivals; latency limit %v; peak in-flight %d; rejected %d",
		nLow, cfg.LowQPS, nHigh, cfg.HighQPS, serviceLimit, peak, rejected)
	out.note("gen_late_ms_p99 %.3f (%d samples beyond it; p95 %.3f); server queue wait p50 %.3f ms, p95 %.3f ms (%d beyond)",
		lateP99, lateBeyond, lateP95, qP50, qP95, qBeyond)
	out.note("p50_ms and p50_ms_low are the medians of each step's latencies (scheduled send -> result bytes); events_per_s and cells_per_s divide job types' events and passes by their lower-quartile server run times, so cells_per_s is a fixed multiple of events_per_s")
	out.note("live share of busy CPU time (1 - stolen) applied: low step %.4f, high step %.4f; unscaled: setup_s %.6f, p50_ms %.3f, p50_ms_low %.3f, events_per_s %.6g",
		liveLow, live, median(rawBoots), median(highLat), median(lowLat), events/(runMs/1e3))
	return out, nil
}

// setServiceCounts records the schedule's job mix and each job's event
// count, all independent of the seed.
func setServiceCounts(out *outcome, plan []plannedJob, ref map[string]*direct) {
	for _, pj := range plan {
		step := "low"
		if pj.high {
			step = "high"
		}
		out.counts["service.jobs."+step+"."+string(pj.kind)]++
	}
	for name, d := range ref {
		out.counts["service.events_per_job."+name] = d.events
	}
}

// serverRung is the ladder's server layer for the workloads that do not
// exercise it: a closed loop, one job at a time, of an eval job per
// program, three rounds.
func serverRung(cfg config, out *outcome, ws []workload.Workload) error {
	s, err := boot(cfg.Parallel)
	if err != nil {
		return err
	}
	var runs []*jobRun
	for round := 0; round < 3; round++ {
		for _, w := range ws {
			pj := plannedJob{kind: server.KindEval, program: w.Name()}
			runs = append(runs, s.job(context.Background(), pj, time.Now(), cfg.ServiceScale, false))
		}
	}
	s.close()
	ref, err := directRuns(cfg.ServiceScale, cfg.Parallel)
	if err != nil {
		return err
	}
	checkServed(cfg, out, runs, ref)
	setServerLayer(out, runs)
	return nil
}

// setServerLayer sets the server.* per-layer metrics from job records.
func setServerLayer(out *outcome, runs []*jobRun) {
	var submit, queue, run, result, polls []float64
	for _, r := range runs {
		if !r.ok() {
			continue
		}
		submit = append(submit, ms(r.submit))
		queue = append(queue, float64(r.status.StartedNs-r.status.SubmittedNs)/1e6)
		run = append(run, float64(r.status.DoneNs-r.status.StartedNs)/1e6)
		result = append(result, ms(r.result))
		polls = append(polls, float64(r.polls))
	}
	out.set("server.submit_ms_p50", median(submit), "ms")
	out.set("server.queue_wait_ms_p50", median(queue), "ms")
	out.set("server.run_ms_p50", median(run), "ms")
	out.set("server.result_ms_p50", median(result), "ms")
	out.set("server.polls_per_job", mean(polls), "count")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// traceService is the service's traced run: the ladder over the traces a
// job replays live (the unscaled train input it profiles, the scaled test
// input it evaluates), then the open loop with each job's server-side span
// tree fetched, so its latency splits into generator lateness, submit,
// queue wait, the pipeline's stages and the result fetch.
func traceService(cfg config, out *outcome) error {
	var traces []*ladderTrace
	for _, w := range sortedByName(workload.All()) {
		traces = append(traces, &ladderTrace{w: w, train: w.Train(), test: benchsuite.ScaledInputs(w, cfg.ServiceScale)[1]})
	}
	cost, err := ladder(out, cfg.Work, traces)
	if err != nil {
		return err
	}
	s, err := boot(cfg.Parallel)
	if err != nil {
		return err
	}
	plan, _, _ := servicePlan(cfg)
	runs, _ := s.load(plan, 0, cfg.ServiceScale, true)
	s.close()
	ref, err := directRuns(cfg.ServiceScale, cfg.Parallel)
	if err != nil {
		return err
	}
	checkServed(cfg, out, runs, ref)
	setServerLayer(out, runs)

	var total, covered time.Duration
	parts := map[string]float64{}
	for _, r := range runs {
		if !r.ok() || r.trace == nil {
			continue
		}
		total += r.latency
		// The server stamps the submission inside the POST's round
		// trip, so only the queue wait past the POST adds to it.
		queue := time.Duration(r.status.StartedNs - r.status.SubmittedNs)
		covered += r.late + r.submit + max(0, queue-r.submit) + r.result
		parts["queue"] += float64(queue)
		stage := stageWalls(r.trace.Spans)
		for _, k := range []string{"profile", "place", "eval"} {
			covered += stage[k]
		}
		d := ref[r.plan.program]
		profEv := float64(streamEvents(d.cmp.Profile.Counter))
		evalEv := float64(d.events) - profEv
		parts["source"] += (profEv + evalEv) * cost.emit
		parts["profile"] += float64(stage["profile"]) - profEv*cost.emit
		parts["place"] += float64(stage["place"])
		parts["eval"] += float64(stage["eval"]) - evalEv*cost.emit
	}
	if total == 0 {
		return fmt.Errorf("service: no job completed")
	}
	setShares(out, total, parts, covered)
	setServiceCounts(out, plan, ref)

	gcc, err := workload.Get("gcc")
	if err != nil {
		return err
	}
	if err := sweepRung(cfg, out, gcc, cfg.ServiceScale); err != nil {
		return err
	}
	return setObs(out, gcc, cfg.ServiceScale)
}

// stageWalls is the wall time each pipeline stage of one job covers: from
// the first span of the stage starting to the last one ending, so
// evaluation units running side by side count once.
func stageWalls(spans []telemetry.Span) map[string]time.Duration {
	first, last := map[string]int64{}, map[string]int64{}
	for _, sp := range spans {
		if sp.EndNs == 0 {
			continue
		}
		if f, ok := first[sp.Stage]; !ok || sp.StartNs < f {
			first[sp.Stage] = sp.StartNs
		}
		if sp.EndNs > last[sp.Stage] {
			last[sp.Stage] = sp.EndNs
		}
	}
	walls := map[string]time.Duration{}
	for k, f := range first {
		walls[k] = time.Duration(last[k] - f)
	}
	return walls
}
