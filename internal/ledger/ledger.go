// Package ledger is the pipeline's structured run log: a stream of
// versioned JSONL events — run metadata, per-stage spans, placement merge
// decisions, per-pass evaluation summaries, and metrics snapshots —
// written as the experiment engine executes. A ledger file is a complete
// machine-readable record of one run: cmd/tables can re-render the CLI
// summary from it, and external tools can diff two runs stage by stage.
//
// # Schema
//
// Every line is one JSON object (an Event envelope) with three fixed
// fields — "v" (schema version), "seq" (0-based line number), "event"
// (the event kind) — plus exactly one kind-specific payload field:
//
//	{"v":5,"seq":0,"event":"run_start","runStart":{...}}
//	{"v":5,"seq":1,"event":"workload_start","workloadStart":{...}}
//	{"v":5,"seq":2,"event":"span","span":{...}}
//	{"v":5,"seq":3,"event":"placement","placement":{...}}
//	{"v":5,"seq":4,"event":"eval","eval":{...}}
//	{"v":5,"seq":5,"event":"sweep","sweep":{...}}
//	{"v":5,"seq":6,"event":"workload_end","workloadEnd":{...}}
//	{"v":5,"seq":7,"event":"trace","trace":{...}}
//	{"v":5,"seq":8,"event":"metrics","metrics":{...}}
//	{"v":5,"seq":9,"event":"run_end","runEnd":{...}}
//
// Span times are nanoseconds relative to the writer's epoch (the run
// start), so two ledgers of the same seeded run differ only in timing
// fields, never in structure or result numbers.
//
// The schema is frozen per version: adding, removing, or retyping any
// reachable field requires bumping SchemaVersion. The fingerprint test in
// this package fails on any silent change.
//
// Like internal/metrics, every Writer method is safe on a nil receiver
// and does nothing there — callers thread a plain *ledger.Writer through
// and never test it for nil.
package ledger

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/metrics"
)

// SchemaVersion identifies the event schema. Bump it on any change to the
// envelope or any payload type (the fingerprint test enforces this).
// Version history: v1 = the original eight event kinds; v2 added the
// "sweep" event (layout-sweep grid results); v3 added sweep prep
// accounting (prep time/bytes, broadcast profile counts, layout groups)
// and the cutoff/heap cell axes; v4 added the "trace" event (a job's
// telemetry span tree with counter deltas) and cumulative buckets on
// metrics histogram snapshots; v5 added the trace event's error (why a
// job failed, with a panic's value and stack).
const SchemaVersion = 5

// Event is the per-line envelope. Exactly one payload pointer is non-nil,
// matching Kind.
type Event struct {
	V    int    `json:"v"`
	Seq  uint64 `json:"seq"`
	Kind string `json:"event"`

	RunStart      *RunStart         `json:"runStart,omitempty"`
	WorkloadStart *WorkloadStart    `json:"workloadStart,omitempty"`
	Span          *Span             `json:"span,omitempty"`
	Placement     *Placement        `json:"placement,omitempty"`
	Eval          *Eval             `json:"eval,omitempty"`
	Sweep         *Sweep            `json:"sweep,omitempty"`
	WorkloadEnd   *WorkloadEnd      `json:"workloadEnd,omitempty"`
	Trace         *Trace            `json:"trace,omitempty"`
	Metrics       *metrics.Snapshot `json:"metrics,omitempty"`
	RunEnd        *RunEnd           `json:"runEnd,omitempty"`
}

// The event kind strings.
const (
	KindRunStart      = "run_start"
	KindWorkloadStart = "workload_start"
	KindSpan          = "span"
	KindPlacement     = "placement"
	KindEval          = "eval"
	KindSweep         = "sweep"
	KindWorkloadEnd   = "workload_end"
	KindTrace         = "trace"
	KindMetrics       = "metrics"
	KindRunEnd        = "run_end"
)

// RunStart opens a ledger: what ran, where, and with which knobs.
type RunStart struct {
	SchemaVersion int      `json:"schemaVersion"`
	Tool          string   `json:"tool"`
	SHA           string   `json:"sha,omitempty"`
	Scale         float64  `json:"scale,omitempty"`
	Parallelism   int      `json:"parallelism,omitempty"`
	Workloads     []string `json:"workloads,omitempty"`
	Cache         string   `json:"cache,omitempty"`
}

// WorkloadStart marks one workload's pipeline beginning.
type WorkloadStart struct {
	Workload string   `json:"workload"`
	Inputs   []string `json:"inputs"`
	Layouts  []string `json:"layouts"`
}

// Span is one timed pipeline stage. StartNs is relative to the run epoch;
// WallNs is the stage's wall-clock duration. Stage names reuse the
// metrics.Stage export names ("profile", "place", "eval", ...).
type Span struct {
	Workload string `json:"workload,omitempty"`
	Stage    string `json:"stage"`
	StartNs  int64  `json:"startNs"`
	WallNs   int64  `json:"wallNs"`
}

// Placement summarises one workload's placement output, including the
// phase-6 merge decisions in order.
type Placement struct {
	Workload          string          `json:"workload"`
	Globals           int             `json:"globals"`
	SegmentBytes      int64           `json:"segmentBytes"`
	HeapPlans         int             `json:"heapPlans"`
	Bins              int             `json:"bins"`
	PredictedConflict uint64          `json:"predictedConflict"`
	Merges            []MergeDecision `json:"merges,omitempty"`
}

// MergeDecision is one phase-6 merge: compound B absorbed into A at the
// chosen line rotation, triggered by the given TRGselect edge weight.
type MergeDecision struct {
	A          int    `json:"a"`
	B          int    `json:"b"`
	Weight     uint64 `json:"weight"`
	ChosenLine int    `json:"chosenLine"`
	Members    int    `json:"members"`
}

// Eval is the summary of one evaluation pass (one workload × input ×
// layout unit).
type Eval struct {
	Workload    string  `json:"workload"`
	Input       string  `json:"input"`
	Layout      string  `json:"layout"`
	Accesses    uint64  `json:"accesses"`
	Misses      uint64  `json:"misses"`
	MissRatePct float64 `json:"missRatePct"`
	// ByCategoryPct lists per-object-category miss rates in category enum
	// order (stack, global, heap, constant) — an array, not a map, so the
	// byte order is deterministic.
	ByCategoryPct   []CategoryRate `json:"byCategoryPct,omitempty"`
	TotalPages      int            `json:"totalPages,omitempty"`
	WorkingSetPages float64        `json:"workingSetPages,omitempty"`
}

// CategoryRate is one object category's miss rate within an Eval event.
type CategoryRate struct {
	Category string  `json:"category"`
	MissPct  float64 `json:"missPct"`
}

// Sweep records one layout-sweep execution: the grid's per-cell results
// plus the engine's throughput accounting. Cells carry the same plain
// fields as report.SweepRow, so cmd/tables re-renders the comparison
// matrix and Pareto frontier from the ledger alone.
type Sweep struct {
	Workload string `json:"workload"`
	Input    string `json:"input"`
	// Engine names the execution path: "shared" (decode-once broadcast)
	// or "independent" (one replay per cell).
	Engine string      `json:"engine"`
	Cells  []SweepCell `json:"cells,omitempty"`

	WallNs         int64   `json:"wallNs"`
	DecodeNs       int64   `json:"decodeNs,omitempty"`
	Batches        uint64  `json:"batches,omitempty"`
	Events         uint64  `json:"events,omitempty"`
	ConfigsPerSec  float64 `json:"configsPerSec"`
	DecodeSharePct float64 `json:"decodeSharePct,omitempty"`

	// Prep accounting (shared engine; independent runs fill PrepNs only):
	// how long profile/placement construction took, how many profile
	// passes the broadcast deduplicated, and the resident-bytes peak the
	// streamed release discipline achieved versus materializing all prep.
	PrepNs            int64   `json:"prepNs,omitempty"`
	PrepSharePct      float64 `json:"prepSharePct,omitempty"`
	PeakPrepBytes     int64   `json:"peakPrepBytes,omitempty"`
	PrepBytesTotal    int64   `json:"prepBytesTotal,omitempty"`
	ProfilesBroadcast int     `json:"profilesBroadcast,omitempty"`
	ProfilesDeduped   int     `json:"profilesDeduped,omitempty"`
	Groups            int     `json:"groups,omitempty"`
}

// SweepCell is one grid point's result within a Sweep event.
type SweepCell struct {
	Size        int64   `json:"size"`
	Block       int64   `json:"block"`
	Assoc       int     `json:"assoc"`
	L2          string  `json:"l2,omitempty"`
	TLB         int     `json:"tlb,omitempty"`
	Chunk       int64   `json:"chunk,omitempty"`
	Queue       int64   `json:"queue,omitempty"`
	Cutoff      float64 `json:"cutoff,omitempty"`
	Heap        string  `json:"heap,omitempty"`
	Layout      string  `json:"layout"`
	Bytes       int64   `json:"bytes"`
	Accesses    uint64  `json:"accesses"`
	Misses      uint64  `json:"misses"`
	MissRatePct float64 `json:"missRatePct"`
	Pareto      bool    `json:"pareto,omitempty"`
}

// WorkloadEnd closes one workload: the CCDP-vs-natural miss-rate
// reductions per input, in input order.
type WorkloadEnd struct {
	Workload   string      `json:"workload"`
	Reductions []Reduction `json:"reductions,omitempty"`
}

// Reduction is one input's CCDP miss-rate reduction (positive = better).
type Reduction struct {
	Input        string  `json:"input"`
	ReductionPct float64 `json:"reductionPct"`
}

// Trace is a job's completed telemetry span tree (schema v4, error v5): the
// service-side per-job view — stage intervals with cell/workload labels
// and counter deltas — sealed into the job's ledger when it reaches a
// terminal state, so offline ledgers give the same per-stage latency
// view as the live /v1/jobs/{id}/trace endpoint.
type Trace struct {
	// Job is the service job ID; Kind its request kind ("eval",
	// "sweep", ...); State the terminal state the job reached, and Error
	// why it failed or was cancelled (for a panic, the value and stack).
	Job   string      `json:"job,omitempty"`
	Kind  string      `json:"kind,omitempty"`
	State string      `json:"state,omitempty"`
	Error string      `json:"error,omitempty"`
	Spans []TraceSpan `json:"spans"`
}

// TraceSpan is one node of a Trace: IDs are creation-ordered from 1
// (the root), Parent names the containing span, and times are
// nanosecond offsets from the same epoch as the ledger's span events.
type TraceSpan struct {
	ID       int            `json:"id"`
	Parent   int            `json:"parent,omitempty"`
	Workload string         `json:"workload,omitempty"`
	Stage    string         `json:"stage"`
	Label    string         `json:"label,omitempty"`
	StartNs  int64          `json:"startNs"`
	EndNs    int64          `json:"endNs"`
	Counters []CounterDelta `json:"counters,omitempty"`
}

// CounterDelta is one metrics counter's increment attributed to a span.
type CounterDelta struct {
	Name  string `json:"name"`
	Delta uint64 `json:"delta"`
}

// RunEnd closes a ledger with the headline aggregates.
type RunEnd struct {
	Workloads            int     `json:"workloads"`
	AvgTrainReductionPct float64 `json:"avgTrainReductionPct"`
	AvgTestReductionPct  float64 `json:"avgTestReductionPct"`
	WallNs               int64   `json:"wallNs"`
}

// Writer streams events to an io.Writer as JSONL. It is safe for
// concurrent use (parallel evaluation units emit from worker goroutines)
// and all methods are no-ops on a nil receiver. Errors are sticky: the
// first write error is kept and returned by Close.
type Writer struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	close func() error
	epoch time.Time
	seq   uint64
	err   error
}

// New returns a Writer streaming to w with the epoch set to now.
func New(w io.Writer) *Writer {
	return NewAt(w, time.Now())
}

// NewAt returns a Writer with an explicit epoch — the zero point for span
// StartNs offsets. Tests use a fixed epoch for byte-stable output.
func NewAt(w io.Writer, epoch time.Time) *Writer {
	return &Writer{bw: bufio.NewWriter(w), epoch: epoch}
}

// Create opens path for writing (truncating) and returns a Writer over it.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	lw := New(f)
	lw.close = f.Close
	return lw, nil
}

// Close flushes buffered events, closes the underlying file when the
// Writer owns one, and returns the first error seen. Nil-safe.
func (l *Writer) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if ferr := l.bw.Flush(); l.err == nil {
		l.err = ferr
	}
	if l.close != nil {
		if cerr := l.close(); l.err == nil {
			l.err = cerr
		}
		l.close = nil
	}
	return l.err
}

// Err returns the sticky write error, if any. Nil-safe.
func (l *Writer) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Epoch returns the writer's time zero. Nil-safe (returns the zero time).
func (l *Writer) Epoch() time.Time {
	if l == nil {
		return time.Time{}
	}
	return l.epoch
}

// emit serialises one envelope under the lock, assigning its sequence
// number. Marshalling Event cannot fail (fixed types, no cycles), so any
// error comes from the underlying writer and sticks.
func (l *Writer) emit(kind string, fill func(*Event)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	ev := Event{V: SchemaVersion, Seq: l.seq, Kind: kind}
	fill(&ev)
	b, err := json.Marshal(&ev)
	if err != nil {
		l.err = err
		return
	}
	l.seq++
	b = append(b, '\n')
	if _, err := l.bw.Write(b); err != nil {
		l.err = err
	}
}

// RunStart emits the opening event. The writer stamps the schema version.
func (l *Writer) RunStart(rs RunStart) {
	rs.SchemaVersion = SchemaVersion
	l.emit(KindRunStart, func(ev *Event) { ev.RunStart = &rs })
}

// WorkloadStart emits a workload_start event.
func (l *Writer) WorkloadStart(ws WorkloadStart) {
	l.emit(KindWorkloadStart, func(ev *Event) { ev.WorkloadStart = &ws })
}

// Span emits one timed stage: start is the stage's absolute start time
// (converted to an epoch offset), wall its duration.
func (l *Writer) Span(workload, stage string, start time.Time, wall time.Duration) {
	l.emit(KindSpan, func(ev *Event) {
		ev.Span = &Span{
			Workload: workload,
			Stage:    stage,
			StartNs:  start.Sub(l.epoch).Nanoseconds(),
			WallNs:   wall.Nanoseconds(),
		}
	})
}

// Placement emits a placement summary event.
func (l *Writer) Placement(p Placement) {
	l.emit(KindPlacement, func(ev *Event) { ev.Placement = &p })
}

// Eval emits one evaluation pass summary.
func (l *Writer) Eval(e Eval) {
	l.emit(KindEval, func(ev *Event) { ev.Eval = &e })
}

// Sweep emits one layout-sweep result event.
func (l *Writer) Sweep(s Sweep) {
	l.emit(KindSweep, func(ev *Event) { ev.Sweep = &s })
}

// WorkloadEnd emits a workload_end event.
func (l *Writer) WorkloadEnd(we WorkloadEnd) {
	l.emit(KindWorkloadEnd, func(ev *Event) { ev.WorkloadEnd = &we })
}

// Trace emits a job's sealed telemetry span tree.
func (l *Writer) Trace(t Trace) {
	l.emit(KindTrace, func(ev *Event) { ev.Trace = &t })
}

// Metrics emits a metrics snapshot event.
func (l *Writer) Metrics(snap metrics.Snapshot) {
	l.emit(KindMetrics, func(ev *Event) { ev.Metrics = &snap })
}

// RunEnd emits the closing event.
func (l *Writer) RunEnd(re RunEnd) {
	l.emit(KindRunEnd, func(ev *Event) { ev.RunEnd = &re })
}
