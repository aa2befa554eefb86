// Package metrics is the pipeline-wide observability layer: cheap atomic
// counters, stage timers, and power-of-two histogram sketches shared by
// every stage of the CCDP pipeline (trace emission, TRG construction,
// placement, cache simulation).
//
// The design constraint is the hot path: the trace emitter and the TRG
// recency queue run once per simulated memory reference, so instrumentation
// must cost one predictable branch when disabled and one uncontended atomic
// when enabled. Every method on *Collector is safe on a nil receiver and
// does nothing there — callers hold a plain `*metrics.Collector` field and
// never test it for nil themselves.
//
// A Collector is safe for concurrent use (core.RunAll drives several
// pipelines at once); Snapshot may be taken while stages are still running
// and observes a consistent-enough view for reporting.
package metrics

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one pipeline-wide monotonic counter.
type Counter int

// The fixed counter set, one per load-bearing pipeline quantity.
const (
	// TraceEvents counts every event the emitter produces
	// (loads, stores, allocs, frees).
	TraceEvents Counter = iota
	// TraceAllocs counts heap allocation events.
	TraceAllocs
	// QueueEvictions counts recency-queue capacity evictions during
	// TRG construction (entries dropped past the queue threshold).
	QueueEvictions
	// TRGEdges counts distinct chunk-pair edges materialized in the TRG.
	TRGEdges
	// TRGWeight accumulates the total TRG edge weight added.
	TRGWeight
	// SimAccesses and SimMisses accumulate cache-simulator totals across
	// evaluation passes (per-layout splits live in the named counters).
	SimAccesses
	SimMisses
	// PlacementMerges counts phase-6 compound merges.
	PlacementMerges
	// StoreHits counts trace-store lookups served from an existing entry
	// (standalone file or bundle member); StoreMisses counts lookups that
	// had to record the artifact fresh. A warm store serves every lookup
	// from cache: StoreMisses == 0.
	StoreHits
	StoreMisses
	// StoreClaimWaits counts lookups that found another process (or
	// goroutine) holding the recording claim and waited for it to publish
	// instead of recording themselves.
	StoreClaimWaits
	// StoreEvictions counts files removed by the store's LRU size-cap
	// pass (a bundle counts once, however many entries it packs).
	StoreEvictions
	// StorePacked counts small entries consolidated into bundle files by
	// the maintenance pass.
	StorePacked
	// StoreBytesWritten accumulates on-disk (framed) bytes published
	// into the store; StoreBytesRead accumulates on-disk bytes opened
	// for replay from existing entries.
	StoreBytesWritten
	StoreBytesRead

	// SweepCells counts grid cells evaluated by the layout-sweep engine;
	// SweepBatches counts the enriched event batches its shared decoder
	// broadcast to the per-cell evaluators.
	SweepCells
	SweepBatches
	// SweepLayoutGroups counts the layout groups the shared engine
	// replays, after identical carved CCDP layouts merge (each group
	// resolves addresses once for its members).
	SweepLayoutGroups
	// SweepProfilesBroadcast counts distinct profile configs built by the
	// decode-once multi-profile pass; SweepProfilesDeduped counts the
	// profile passes dedup avoided.
	SweepProfilesBroadcast
	SweepProfilesDeduped
	// SweepPeakPrepBytes records the peak resident prep estimate (profiles
	// plus placements) under the streamed prep schedule.
	SweepPeakPrepBytes

	// ServerRequests counts HTTP requests the placement service handled
	// (every route, including health and debug probes).
	ServerRequests
	// ServerJobsSubmitted counts jobs accepted into the service's queue;
	// ServerJobsRejected counts submissions refused by backpressure (the
	// queue was full — the client saw 503).
	ServerJobsSubmitted
	ServerJobsRejected
	// ServerJobsDone / ServerJobsFailed / ServerJobsCancelled count
	// terminal job states: completed with a result, errored, or
	// cancelled (by DELETE, client abort, or shutdown).
	ServerJobsDone
	ServerJobsFailed
	ServerJobsCancelled
	// ServerJobsEvicted counts terminal jobs dropped from the registry by
	// the retention cap (their IDs 404 afterwards).
	ServerJobsEvicted
	// ProfileMemoHits counts experiments whose train-input profile a
	// server-scoped core.ProfileMemo served; ProfileMemoMisses counts the
	// lookups that had to run the profiling pass.
	ProfileMemoHits
	ProfileMemoMisses
	// JobPanics counts service jobs that panicked: each failed that job,
	// with the panic value and stack in its ledger, and the daemon ran on.
	JobPanics

	NumCounters int = iota
)

var counterNames = [NumCounters]string{
	TraceEvents:            "trace.events",
	TraceAllocs:            "trace.allocs",
	QueueEvictions:         "profile.queue_evictions",
	TRGEdges:               "trg.edges",
	TRGWeight:              "trg.weight",
	SimAccesses:            "sim.accesses",
	SimMisses:              "sim.misses",
	PlacementMerges:        "placement.merges",
	StoreHits:              "store.hits",
	StoreMisses:            "store.misses",
	StoreClaimWaits:        "store.claim_waits",
	StoreEvictions:         "store.evictions",
	StorePacked:            "store.packed",
	StoreBytesWritten:      "store.bytes_written",
	StoreBytesRead:         "store.bytes_read",
	SweepCells:             "sweep.cells",
	SweepBatches:           "sweep.batches",
	SweepLayoutGroups:      "sweep.layout_groups",
	SweepProfilesBroadcast: "sweep.profiles_broadcast",
	SweepProfilesDeduped:   "sweep.profiles_deduped",
	SweepPeakPrepBytes:     "sweep.peak_prep_bytes",
	ServerRequests:         "server.requests",
	ServerJobsSubmitted:    "server.jobs_submitted",
	ServerJobsRejected:     "server.jobs_rejected",
	ServerJobsDone:         "server.jobs_done",
	ServerJobsFailed:       "server.jobs_failed",
	ServerJobsCancelled:    "server.jobs_cancelled",
	ServerJobsEvicted:      "server.jobs_evicted",
	ProfileMemoHits:        "profile.memo_hits",
	ProfileMemoMisses:      "profile.memo_misses",
	JobPanics:              "job.panics",
}

// String returns the counter's export name.
func (c Counter) String() string {
	if c < 0 || int(c) >= NumCounters {
		return "invalid"
	}
	return counterNames[c]
}

// Stage identifies a timed pipeline stage.
type Stage int

// The timed stages: the three pipeline passes, the whole-workload pipeline,
// and the placement phases of the paper's Figure 1 (3 and 5 share an
// implementation pass, as do 0 and 4's popularity work inside them).
const (
	StagePipeline  Stage = iota // one core.Run end to end
	StageProfile                // profiling pass (TRG construction)
	StagePlace                  // placement.Compute, phases 0-8
	StageEval                   // one evaluation pass (cache simulation)
	StageReplay                 // trace-file replay decode (I/O + event rebuild)
	StageSweep                  // one shared-decode sweep pass over a grid
	StageSweepPrep              // sweep profile/placement preparation fan-out

	StagePhaseHeapBins       // phase 1: heap preprocessing + bin tags
	StagePhaseStackConstants // phase 2: stack vs constants
	StagePhaseCompounds      // phases 3+5: compound nodes + line packing
	StagePhaseSelectEdges    // phase 4: TRGselect edge construction
	StagePhaseMerge          // phase 6: merge loop
	StagePhaseGlobalOrder    // phase 7: final global-segment ordering
	StagePhaseHeapPlans      // phase 8: custom-malloc table

	NumStages int = iota
)

var stageNames = [NumStages]string{
	StagePipeline:            "pipeline",
	StageProfile:             "profile",
	StagePlace:               "place",
	StageEval:                "eval",
	StageReplay:              "replay",
	StageSweep:               "sweep",
	StageSweepPrep:           "sweep.prep",
	StagePhaseHeapBins:       "place.phase1_heap_bins",
	StagePhaseStackConstants: "place.phase2_stack_constants",
	StagePhaseCompounds:      "place.phase3_5_compounds",
	StagePhaseSelectEdges:    "place.phase4_select_edges",
	StagePhaseMerge:          "place.phase6_merge",
	StagePhaseGlobalOrder:    "place.phase7_global_order",
	StagePhaseHeapPlans:      "place.phase8_heap_plans",
}

// String returns the stage's export name.
func (s Stage) String() string {
	if s < 0 || int(s) >= NumStages {
		return "invalid"
	}
	return stageNames[s]
}

// Hist identifies one histogram sketch.
type Hist int

// The fixed histogram set.
const (
	// HistAllocSize sketches heap allocation sizes in bytes.
	HistAllocSize Hist = iota
	// HistAccessSize sketches load/store widths in bytes.
	HistAccessSize
	// HistMergeMembers sketches compound sizes (members) after each
	// phase-6 merge.
	HistMergeMembers
	// HistQueueOccupancy sketches the recency queue's byte occupancy,
	// sampled once per delivered trace batch during TRG construction.
	HistQueueOccupancy
	// HistJobNanos sketches end-to-end job latency (submit to terminal
	// state) in nanoseconds on the placement service.
	HistJobNanos
	// HistRequestNanos sketches per-HTTP-request handler latency in
	// nanoseconds on the placement service.
	HistRequestNanos

	NumHists int = iota
)

var histNames = [NumHists]string{
	HistAllocSize:      "alloc_size_bytes",
	HistAccessSize:     "access_size_bytes",
	HistMergeMembers:   "merge_members",
	HistQueueOccupancy: "queue_occupancy_bytes",
	HistJobNanos:       "server.job_ns",
	HistRequestNanos:   "server.request_ns",
}

// String returns the histogram's export name.
func (h Hist) String() string {
	if h < 0 || int(h) >= NumHists {
		return "invalid"
	}
	return histNames[h]
}

// stageStat accumulates one stage's timing atomically.
type stageStat struct {
	count atomic.Uint64
	nanos atomic.Uint64
	max   atomic.Uint64
}

// numBuckets covers bits.Len64 outputs 0..64: bucket i holds values whose
// bit length is i, i.e. the power-of-two range [2^(i-1), 2^i).
const numBuckets = 65

// histogram is a lock-free power-of-two bucket sketch.
type histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [numBuckets]atomic.Uint64
}

func (h *histogram) observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// quantile returns an upper bound for the q-quantile (q in [0,1]): the top
// of the first bucket whose cumulative count reaches q of the total.
func (h *histogram) quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var run uint64
	for i := 0; i < numBuckets; i++ {
		run += h.buckets[i].Load()
		if run >= target {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return 1<<63 - 1
}

// cumulative exports the sketch as a cumulative distribution, cut off
// after the last non-empty bucket (the +Inf bucket is implied by Count).
func (h *histogram) cumulative() []HistBucket {
	var out []HistBucket
	var run uint64
	for i := 0; i < numBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		run += n
		le := ^uint64(0) // the bits.Len64==64 bucket tops out at MaxUint64
		if i < 64 {
			le = uint64(1)<<uint(i) - 1
		}
		out = append(out, HistBucket{Le: le, Count: run})
	}
	return out
}

// Collector gathers all pipeline metrics. The zero value is ready to use;
// a nil *Collector is the disabled collector and every method no-ops.
type Collector struct {
	counters [NumCounters]atomic.Uint64
	stages   [NumStages]stageStat
	hists    [NumHists]histogram

	mu    sync.Mutex
	named map[string]uint64
}

// New returns an enabled collector.
func New() *Collector { return &Collector{} }

// Add increments counter ctr by v.
func (c *Collector) Add(ctr Counter, v uint64) {
	if c == nil {
		return
	}
	c.counters[ctr].Add(v)
}

// Get returns the current value of counter ctr (0 on a nil collector).
func (c *Collector) Get(ctr Counter) uint64 {
	if c == nil {
		return 0
	}
	return c.counters[ctr].Load()
}

// Observe records v into histogram h.
func (c *Collector) Observe(h Hist, v uint64) {
	if c == nil {
		return
	}
	c.hists[h].observe(v)
}

// Merge folds src's accumulated state into c: counters, histogram
// buckets, stage counts/durations, and named counters add; stage maxima
// take the larger value. It is how worker-local collectors fold into a
// session collector after a pool drains (exec.Map), so every merged
// quantity is commutative and the merged totals match what a single
// shared collector would have seen. src should be quiescent; a nil c or
// src is a no-op.
func (c *Collector) Merge(src *Collector) {
	if c == nil || src == nil || c == src {
		return
	}
	for i := range src.counters {
		if v := src.counters[i].Load(); v != 0 {
			c.counters[i].Add(v)
		}
	}
	for i := range src.stages {
		ss, ds := &src.stages[i], &c.stages[i]
		n := ss.count.Load()
		if n == 0 {
			continue
		}
		ds.count.Add(n)
		ds.nanos.Add(ss.nanos.Load())
		m := ss.max.Load()
		for {
			old := ds.max.Load()
			if m <= old || ds.max.CompareAndSwap(old, m) {
				break
			}
		}
	}
	for i := range src.hists {
		sh, dh := &src.hists[i], &c.hists[i]
		if sh.count.Load() == 0 {
			continue
		}
		dh.count.Add(sh.count.Load())
		dh.sum.Add(sh.sum.Load())
		for b := range sh.buckets {
			if v := sh.buckets[b].Load(); v != 0 {
				dh.buckets[b].Add(v)
			}
		}
	}
	// Copy under src's lock, then add under c's, so two concurrent merges
	// in opposite directions cannot deadlock.
	src.mu.Lock()
	var named map[string]uint64
	if len(src.named) > 0 {
		named = make(map[string]uint64, len(src.named))
		for k, v := range src.named {
			named[k] = v
		}
	}
	src.mu.Unlock()
	for k, v := range named {
		c.AddNamed(k, v)
	}
}

// AddNamed increments a dynamically-named counter (e.g. per-layout
// simulator totals). It takes a mutex and must stay off per-event paths.
func (c *Collector) AddNamed(name string, v uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.named == nil {
		c.named = make(map[string]uint64)
	}
	c.named[name] += v
	c.mu.Unlock()
}

// GetNamed returns the value of a named counter (0 if absent or nil).
func (c *Collector) GetNamed(name string) uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.named[name]
}

// Span is an in-flight stage timing. The zero Span (from a nil collector)
// is valid and Stop on it does nothing.
type Span struct {
	c     *Collector
	stage Stage
	start time.Time
}

// Start begins timing one execution of stage s.
func (c *Collector) Start(s Stage) Span {
	if c == nil {
		return Span{}
	}
	return Span{c: c, stage: s, start: time.Now()}
}

// Stop records the span's duration on its stage.
func (sp Span) Stop() {
	if sp.c == nil {
		return
	}
	d := uint64(time.Since(sp.start).Nanoseconds())
	st := &sp.c.stages[sp.stage]
	st.count.Add(1)
	st.nanos.Add(d)
	for {
		old := st.max.Load()
		if d <= old || st.max.CompareAndSwap(old, d) {
			return
		}
	}
}

// StageTotal returns the accumulated duration of stage s.
func (c *Collector) StageTotal(s Stage) time.Duration {
	if c == nil {
		return 0
	}
	return time.Duration(c.stages[s].nanos.Load())
}

// StageCount returns how many times stage s completed.
func (c *Collector) StageCount(s Stage) uint64 {
	if c == nil {
		return 0
	}
	return c.stages[s].count.Load()
}

// CounterSnapshot is the exported view of one counter.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// StageSnapshot is the exported view of one stage's timings.
type StageSnapshot struct {
	Name       string `json:"name"`
	Count      uint64 `json:"count"`
	TotalNanos uint64 `json:"totalNanos"`
	AvgNanos   uint64 `json:"avgNanos"`
	MaxNanos   uint64 `json:"maxNanos"`
}

// HistBucket is one cumulative bucket of an exported histogram: Count
// observations were <= Le. Le bounds are the power-of-two bucket tops
// (2^i - 1), exactly what the Prometheus exposition needs.
type HistBucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistSnapshot is the exported view of one histogram sketch. Quantiles are
// power-of-two upper bounds; Buckets is the cumulative distribution up to
// the last non-empty bucket.
type HistSnapshot struct {
	Name    string       `json:"name"`
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Mean    float64      `json:"mean"`
	P50     uint64       `json:"p50"`
	P90     uint64       `json:"p90"`
	P99     uint64       `json:"p99"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time export of every non-empty metric, shaped for
// JSON artifacts and the run ledger. Every section is a slice sorted by
// name, so two snapshots of identical state marshal to identical bytes in
// any encoder — not just ones that happen to sort map keys — and line
// diffs between runs are stable.
type Snapshot struct {
	Counters []CounterSnapshot `json:"counters,omitempty"`
	Named    []CounterSnapshot `json:"named,omitempty"`
	Stages   []StageSnapshot   `json:"stages,omitempty"`
	Hists    []HistSnapshot    `json:"histograms,omitempty"`
}

// Counter returns the snapshot value of the named fixed counter.
func (s Snapshot) Counter(name string) (uint64, bool) { return findCounter(s.Counters, name) }

// NamedCounter returns the snapshot value of a dynamically-named counter.
func (s Snapshot) NamedCounter(name string) (uint64, bool) { return findCounter(s.Named, name) }

func findCounter(cs []CounterSnapshot, name string) (uint64, bool) {
	i := sort.Search(len(cs), func(i int) bool { return cs[i].Name >= name })
	if i < len(cs) && cs[i].Name == name {
		return cs[i].Value, true
	}
	return 0, false
}

// Stage returns the named stage's snapshot.
func (s Snapshot) Stage(name string) (StageSnapshot, bool) {
	i := sort.Search(len(s.Stages), func(i int) bool { return s.Stages[i].Name >= name })
	if i < len(s.Stages) && s.Stages[i].Name == name {
		return s.Stages[i], true
	}
	return StageSnapshot{}, false
}

// Hist returns the named histogram's snapshot.
func (s Snapshot) Hist(name string) (HistSnapshot, bool) {
	i := sort.Search(len(s.Hists), func(i int) bool { return s.Hists[i].Name >= name })
	if i < len(s.Hists) && s.Hists[i].Name == name {
		return s.Hists[i], true
	}
	return HistSnapshot{}, false
}

// Snapshot exports the collector's current state, every section sorted by
// name. A nil collector returns the zero Snapshot.
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	if c == nil {
		return s
	}
	for i := 0; i < NumCounters; i++ {
		if v := c.counters[i].Load(); v != 0 {
			s.Counters = append(s.Counters, CounterSnapshot{Name: Counter(i).String(), Value: v})
		}
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for i := 0; i < NumStages; i++ {
		st := &c.stages[i]
		n := st.count.Load()
		if n == 0 {
			continue
		}
		total := st.nanos.Load()
		s.Stages = append(s.Stages, StageSnapshot{
			Name:       Stage(i).String(),
			Count:      n,
			TotalNanos: total,
			AvgNanos:   total / n,
			MaxNanos:   st.max.Load(),
		})
	}
	sort.Slice(s.Stages, func(i, j int) bool { return s.Stages[i].Name < s.Stages[j].Name })
	for i := 0; i < NumHists; i++ {
		h := &c.hists[i]
		n := h.count.Load()
		if n == 0 {
			continue
		}
		sum := h.sum.Load()
		s.Hists = append(s.Hists, HistSnapshot{
			Name:    Hist(i).String(),
			Count:   n,
			Sum:     sum,
			Mean:    float64(sum) / float64(n),
			P50:     h.quantile(0.50),
			P90:     h.quantile(0.90),
			P99:     h.quantile(0.99),
			Buckets: h.cumulative(),
		})
	}
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	c.mu.Lock()
	for k, v := range c.named {
		s.Named = append(s.Named, CounterSnapshot{Name: k, Value: v})
	}
	c.mu.Unlock()
	sort.Slice(s.Named, func(i, j int) bool { return s.Named[i].Name < s.Named[j].Name })
	return s
}
