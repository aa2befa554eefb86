// Package telemetry turns the pipeline's observability hooks — the
// core.Experiment stage/span callbacks, benchsuite progress, and the
// sweep engine's per-cell progress reports — into two service-grade
// views: a structured per-job span tree (Recorder) and a live,
// resumable event stream (Hub).
//
// The package follows the repository's nil-receiver convention: every
// method on a nil *Recorder or nil *Hub is a no-op, so callers hold
// plain fields and never test them. Nothing here sits on a per-event
// hot path — spans complete at pipeline stage granularity and sweep
// progress at batch granularity — so a mutex per recorder is fine.
//
// Zero perturbation: the recorder only observes completions the
// pipeline already reports to the run ledger; it never feeds anything
// back, so result bytes are identical with telemetry on or off (the
// server's differential tests hold it to that).
package telemetry

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// Span is one node of a job's span tree: a completed (or, for the
// container spans, still-open) interval of the job's lifecycle. Times
// are nanosecond offsets from the job's epoch (its ledger epoch), so
// trace spans line up with the job ledger's span events.
type Span struct {
	// ID is the span's position in creation order, starting at 1 (the
	// root job span). Parent is the containing span's ID; the root's
	// parent is 0.
	ID     int `json:"id"`
	Parent int `json:"parent,omitempty"`
	// Workload labels every span below the root; Stage is the stage
	// kind ("job", "workload", "profile", "place", "eval", ...); Label
	// distinguishes sibling spans of one stage kind (eval spans carry
	// "input/layout").
	Workload string `json:"workload,omitempty"`
	Stage    string `json:"stage"`
	Label    string `json:"label,omitempty"`
	StartNs  int64  `json:"startNs"`
	// EndNs is 0 while the span is open (the root and workload
	// containers, until Finish closes them).
	EndNs int64 `json:"endNs,omitempty"`
	// Counters are the watched collector's counter increments between
	// the previous completed span and this one. Exact when the job runs
	// its stages sequentially; under parallel evaluation the attribution
	// is approximate (concurrent spans split the deltas by completion
	// order) while the totals stay exact.
	Counters []CounterDelta `json:"counters,omitempty"`
}

// CounterDelta is one counter's increment attributed to a span.
type CounterDelta struct {
	Name  string `json:"name"`
	Delta uint64 `json:"delta"`
}

// SweepProgress is a point-in-time view of a running sweep: the prep
// phase reports layout groups built, the replay phase reports decode
// batches broadcast and cells completed. CellsDone never decreases.
type SweepProgress struct {
	Phase      string `json:"phase"` // "prep" or "replay"
	GroupsDone int    `json:"groupsDone,omitempty"`
	Groups     int    `json:"groups,omitempty"`
	CellsDone  int    `json:"cellsDone"`
	CellsTotal int    `json:"cellsTotal"`
	Batches    uint64 `json:"batches,omitempty"`
	Events     uint64 `json:"events,omitempty"`
}

// Recorder accumulates one job's span tree and republishes everything
// it sees to the job's Hub. All methods are safe for concurrent use
// and no-ops on a nil receiver.
type Recorder struct {
	epoch time.Time
	watch *metrics.Collector
	hub   *Hub

	mu        sync.Mutex
	spans     []Span
	workloads map[string]int // workload name -> index into spans
	last      []uint64       // previous watched counter values
	sweep     *SweepProgress
	finished  bool
}

// NewRecorder starts a recorder whose span times are offsets from
// epoch. watch, when non-nil, is the collector whose counter deltas
// are attributed to completed spans (the job's private collector, not
// the shared server one). hub, when non-nil, receives every recorded
// event; the recorder closes it on Finish.
func NewRecorder(epoch time.Time, watch *metrics.Collector, hub *Hub) *Recorder {
	r := &Recorder{
		epoch:     epoch,
		watch:     watch,
		hub:       hub,
		workloads: make(map[string]int),
	}
	if watch != nil {
		r.last = make([]uint64, metrics.NumCounters)
	}
	r.spans = append(r.spans, Span{ID: 1, Stage: "job", StartNs: r.nowNs()})
	return r
}

func (r *Recorder) nowNs() int64 { return time.Since(r.epoch).Nanoseconds() }

// SetWatch attaches (or replaces) the collector whose counter deltas
// are attributed to completed spans. ccdpd's job manager creates the
// recorder at submission — before the worker pool hands the job its
// private collector — and attaches the collector here when the job
// starts running. The delta baseline resets to the collector's current
// values.
func (r *Recorder) SetWatch(watch *metrics.Collector) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.watch = watch
	if watch == nil {
		r.last = nil
		return
	}
	r.last = make([]uint64, metrics.NumCounters)
	for i := 0; i < metrics.NumCounters; i++ {
		r.last[i] = watch.Get(metrics.Counter(i))
	}
}

// workloadSpan returns the ID of the named workload's container span,
// creating it (open, started now) on first sight. Caller holds r.mu.
func (r *Recorder) workloadSpan(name string) int {
	if name == "" {
		return 1
	}
	if i, ok := r.workloads[name]; ok {
		return r.spans[i].ID
	}
	sp := Span{
		ID:       len(r.spans) + 1,
		Parent:   1,
		Workload: name,
		Stage:    "workload",
		StartNs:  r.nowNs(),
	}
	r.workloads[name] = len(r.spans)
	r.spans = append(r.spans, sp)
	return sp.ID
}

// counterDeltas drains the watched collector's increments since the
// previous completed span. Caller holds r.mu.
func (r *Recorder) counterDeltas() []CounterDelta {
	if r.watch == nil {
		return nil
	}
	var out []CounterDelta
	for i := 0; i < metrics.NumCounters; i++ {
		cur := r.watch.Get(metrics.Counter(i))
		if cur > r.last[i] {
			out = append(out, CounterDelta{Name: metrics.Counter(i).String(), Delta: cur - r.last[i]})
			r.last[i] = cur
		}
	}
	return out
}

// StageBegin observes a pipeline stage starting — the
// core.Experiment.OnStage signal. It ensures the workload container
// span exists and publishes a live "stage" event; the stage's span
// itself lands via SpanDone when the stage completes.
func (r *Recorder) StageBegin(workload string, stage metrics.Stage) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.workloadSpan(workload)
	r.mu.Unlock()
	r.hub.Publish(Event{Kind: EventStage, Stage: &StageChange{Workload: workload, Stage: stage.String()}})
}

// SpanDone records a completed pipeline stage — the
// core.Experiment.OnSpan signal. label distinguishes sibling spans of
// one stage kind (eval units pass "input/layout"; the units of one input
// share its evaluation pass, so their intervals coincide).
func (r *Recorder) SpanDone(workload string, stage metrics.Stage, label string, start time.Time, wall time.Duration) {
	if r == nil {
		return
	}
	startNs := start.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	sp := Span{
		ID:       len(r.spans) + 1,
		Parent:   r.workloadSpan(workload),
		Workload: workload,
		Stage:    stage.String(),
		Label:    label,
		StartNs:  startNs,
		EndNs:    startNs + wall.Nanoseconds(),
		Counters: r.counterDeltas(),
	}
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
	r.hub.Publish(Event{Kind: EventSpan, Span: &sp})
}

// Sweep records the latest sweep progress and publishes it. Callers
// (the sweep engine via the server's adapter) serialize their calls,
// so published CellsDone values are monotonic.
func (r *Recorder) Sweep(p SweepProgress) {
	if r == nil {
		return
	}
	r.mu.Lock()
	cp := p
	r.sweep = &cp
	r.mu.Unlock()
	r.hub.Publish(Event{Kind: EventSweep, Sweep: &p})
}

// LatestSweep returns the most recent sweep progress, or nil if the
// job reported none.
func (r *Recorder) LatestSweep() *SweepProgress {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sweep == nil {
		return nil
	}
	cp := *r.sweep
	return &cp
}

// State publishes a non-terminal lifecycle transition (queued ->
// running) to the live stream.
func (r *Recorder) State(state string) {
	if r == nil {
		return
	}
	r.hub.Publish(Event{Kind: EventState, State: &StateChange{State: state}})
}

// Finish seals the recorder: it closes the root and any still-open
// workload spans, publishes the terminal "done" event carrying the
// job's final state, and closes the hub so every subscriber's stream
// ends. Idempotent; only the first call wins.
func (r *Recorder) Finish(state, errMsg string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.finished {
		r.mu.Unlock()
		return
	}
	r.finished = true
	end := r.nowNs()
	for i := range r.spans {
		if r.spans[i].EndNs == 0 {
			r.spans[i].EndNs = end
		}
	}
	r.mu.Unlock()
	r.hub.Publish(Event{Kind: EventDone, State: &StateChange{State: state, Error: errMsg}})
	r.hub.Close()
}

// Snapshot returns a copy of the span tree in creation order (span
// i has ID i+1). Open spans have EndNs 0.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}
