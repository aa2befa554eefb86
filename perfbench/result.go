package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric of the benchmark's catalogue. BENCHMARK.json
// lists the same names and units; the self-test holds the two together.
type metricDef struct{ Name, Unit string }

// endToEnd is what every untraced run prints, on every workload. An op is
// the workload's unit of work: an evaluation pass (suite), a grid cell
// (sweep) or a job (service).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "events/s"},
	{"cells_per_s", "cells/s"},
	{"miss_reduction_pct", "%"},
	{"p50_ms", "ms"},
	{"p50_ms_low", "ms"},
	{"goodput_qps", "jobs/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is what every traced run prints, on every workload. The ladder
// measures each layer over the workload's own traces.
var perLayer = []metricDef{
	{"trace.record_ns_per_event", "ns/event"},
	{"trace.decode_ns_per_event", "ns/event"},
	{"trace.bytes_per_event", "B/event"},
	{"store.replay_ns_per_event", "ns/event"},
	{"store.inflate_ns_per_event", "ns/event"},
	{"store.bytes_per_event", "B/event"},
	{"workload.emit_ns_per_event", "ns/event"},
	{"profile.self_ns_per_event.shards1", "ns/event"},
	{"profile.self_ns_per_event.shards2", "ns/event"},
	{"trg.edges", "count"},
	{"profile.queue_evictions", "count"},
	{"placement.compute_ms", "ms"},
	{"placement.phase1_heap_bins_ms", "ms"},
	{"placement.phase2_stack_constants_ms", "ms"},
	{"placement.phase3_5_compounds_ms", "ms"},
	{"placement.phase4_select_edges_ms", "ms"},
	{"placement.phase6_merge_ms", "ms"},
	{"placement.phase7_global_order_ms", "ms"},
	{"placement.phase8_heap_plans_ms", "ms"},
	{"sim.eval_self_ns_per_event.dm", "ns/event"},
	{"sim.eval_self_ns_per_event.2w", "ns/event"},
	{"sim.eval_self_ns_per_event.8w", "ns/event"},
	{"sim.build_layout_us", "us"},
	{"sim.eval_allocs_per_pass", "count"},
	{"cache.accesses", "count"},
	{"cache.misses.natural.dm", "count"},
	{"cache.misses.natural.2w", "count"},
	{"cache.misses.natural.8w", "count"},
	{"cache.misses.ccdp.dm", "count"},
	{"cache.misses.ccdp.2w", "count"},
	{"cache.misses.ccdp.8w", "count"},
	{"sweep.prep_s", "s"},
	{"sweep.replay_s", "s"},
	{"sweep.decode_share_pct", "%"},
	{"sweep.peak_prep_bytes", "B"},
	{"sweep.groups", "count"},
	{"sweep.profiles_deduped", "count"},
	{"server.submit_ms_p50", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.result_ms_p50", "ms"},
	{"server.polls_per_job", "count"},
	{"obs.overhead_pct", "%"},
	{"share.source_pct", "%"},
	{"share.profile_pct", "%"},
	{"share.place_pct", "%"},
	{"share.eval_pct", "%"},
	{"share.queue_pct", "%"},
	{"core.residue_pct", "%"},
	{"ladder.events", "count"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's findings: its metrics, the exact counts that must
// repeat run to run, human-readable notes, and the output-check tally.
type outcome struct {
	metrics   map[string]metric
	counts    map[string]uint64
	notes     []string
	attempted int
	failed    int
	failures  []string
	wall      time.Duration
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, counts: map[string]uint64{}}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// check records one checked output; a false ok counts as a failure.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the human-readable report followed by the result line.
// It refuses to print a result whose metrics differ from the mode's
// catalogue or are not finite: that is a benchmark bug, not a reading.
func (o *outcome) print(w io.Writer, cfg config) error {
	want, mode := endToEnd, "end-to-end"
	if cfg.Trace {
		want, mode = perLayer, "traced"
	}
	if err := validate(o.metrics, want); err != nil {
		return err
	}
	if o.attempted < 1 {
		return fmt.Errorf("no output was checked")
	}
	fmt.Fprintf(w, "perfbench: workload=%s mode=%s seed=%d seconds=%g wall=%.1fs\n",
		cfg.Workload, mode, cfg.Seed, cfg.Seconds, o.wall.Seconds())
	fmt.Fprintf(w, "fingerprint: %s\n", mustJSON(fingerprint()))
	fmt.Fprintf(w, "counts: %s\n", mustJSON(o.counts))
	for _, n := range o.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, d := range want {
		fmt.Fprintf(w, "metric %-38s %16.6g %s\n", d.Name, o.metrics[d.Name].Value, d.Unit)
	}
	failPct := 100 * float64(o.failed) / float64(o.attempted)
	fmt.Fprintf(w, "checks: attempted=%d failed=%d fail_pct=%.3f%%\n", o.attempted, o.failed, failPct)
	for _, f := range o.failures {
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
	line, err := json.Marshal(result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// validate holds a metric set to a catalogue: same names, same units,
// finite values.
func validate(got map[string]metric, want []metricDef) error {
	var problems []string
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+d.Name)
		case m.Unit != d.Unit:
			problems = append(problems, fmt.Sprintf("%s has unit %q, want %q", d.Name, m.Unit, d.Unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			problems = append(problems, fmt.Sprintf("%s is not finite", d.Name))
		}
	}
	if len(got) != len(want) {
		known := map[string]bool{}
		for _, d := range want {
			known[d.Name] = true
		}
		for n := range got {
			if !known[n] {
				problems = append(problems, "unexpected "+n)
			}
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metric set does not match the catalogue: %s", strings.Join(problems, "; "))
	}
	return nil
}

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs and how many
// samples lie beyond it. A timing percentile is reported only with at
// least ten beyond it.
func percentile(xs []float64, p float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// peakRSSMiB is the process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reps collects the timings of each operation identity's repetitions in
// a run. On a shared machine the same work's wall time swings by half
// from one repetition to the next, so the benchmark's timings are built on
// each identity's lower quartile: robust to the slow bursts that move a
// median and to the rare fast repetition that moves a minimum.
type reps map[string][]float64

func (r reps) add(id string, v float64) { r[id] = append(r[id], v) }

// q1 is an identity's lower quartile (nearest rank).
func (r reps) q1(id string) float64 {
	v, _ := percentile(r[id], 0.25)
	return v
}

// q1s returns every identity's lower quartile.
func (r reps) q1s() []float64 {
	var vs []float64
	for id := range r {
		vs = append(vs, r.q1(id))
	}
	return vs
}

// stealWindow measures the share of the machine's busy CPU time the
// hypervisor stole, from the moment it starts. The machine the benchmark
// was sized on is a virtual machine whose host is at times oversubscribed:
// for minutes at a time 15-30% of its CPU time is stolen, and the wall
// time of CPU-bound work stretches with it.
type stealWindow struct{ steal, busy uint64 }

func startSteal() stealWindow {
	s, b := cpuTimes()
	return stealWindow{s, b}
}

// live is the share of the window's busy CPU time the machine was given:
// 1 minus the stolen share. A step's timings are multiplied by it, so
// they count only time the machine actually ran; every timed step is
// almost all CPU-bound work, since waits that steal does not stretch
// would be scaled too.
func (w stealWindow) live() float64 {
	s, b := cpuTimes()
	if b <= w.busy || s < w.steal {
		return 1
	}
	return 1 - float64(s-w.steal)/float64(b-w.busy)
}

// setLatency sets p50_ms and p50_ms_low, the medians over operations of
// each operation's lower-quartile latency in the high and low steps,
// scaled by each step's live share, and notes the unscaled figures and
// the raw high-step distribution with its sample count.
func setLatency(out *outcome, high, low reps, liveHigh, liveLow float64, raw []float64) {
	p50High, p50Low := median(high.q1s()), median(low.q1s())
	out.set("p50_ms", p50High*liveHigh, "ms")
	out.set("p50_ms_low", p50Low*liveLow, "ms")
	out.note("unscaled lower-quartile latency: p50_ms %.3f, p50_ms_low %.3f", p50High, p50Low)
	noteTail(out, "high-step", raw)
}

// noteTail notes the raw distribution of a step's latencies: its median
// and, with at least ten samples beyond it, its p95.
func noteTail(out *outcome, step string, raw []float64) {
	p50, _ := percentile(raw, 0.50)
	p95, beyond := percentile(raw, 0.95)
	tail := fmt.Sprintf("p95 %.3f ms (%d samples beyond it)", p95, beyond)
	if beyond < 10 {
		tail = fmt.Sprintf("p95 not reported: %d samples beyond it, fewer than ten", beyond)
	}
	out.note("raw %s latency over %d samples: p50 %.3f ms, %s", step, len(raw), p50, tail)
}
