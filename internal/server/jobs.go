package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/exec"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ErrBusy is returned by Submit when the job queue is full — the HTTP
// layer maps it to 503 so clients back off and retry.
var ErrBusy = errors.New("server: job queue full")

// ErrDraining is returned by Submit once shutdown has begun.
var ErrDraining = errors.New("server: draining, not accepting jobs")

// Job is one asynchronous placement-service computation. All mutable
// fields are guarded by mu; done closes when the job reaches a terminal
// state (what wait=true and the load harness block on).
type Job struct {
	ID  string
	Req JobRequest

	ctx    context.Context
	cancel context.CancelFunc
	prog   *benchsuite.Progress
	ledger *lockedBuffer
	lw     *ledger.Writer
	done   chan struct{}

	// hub is the job's live event stream (SSE subscribers read it); rec
	// is the span recorder feeding it. Both live from submission, so
	// queued-phase transitions stream too; rec closes hub at the
	// terminal transition.
	hub *telemetry.Hub
	rec *telemetry.Recorder

	mu        sync.Mutex
	state     JobState
	errMsg    string
	result    []byte
	submitted time.Duration // offsets from the manager epoch
	started   time.Duration
	finished  time.Duration
}

// lockedBuffer is the in-memory sink for a job's private ledger: the
// ledger writer appends from the worker goroutine while GET
// /v1/jobs/{id}/ledger reads from request goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// Bytes returns a copy of everything written (and flushed) so far.
func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// Status renders the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		Kind:        j.Req.Kind,
		Workload:    j.Req.Workload,
		State:       j.state,
		Error:       j.errMsg,
		SubmittedNs: j.submitted.Nanoseconds(),
		StartedNs:   j.started.Nanoseconds(),
		DoneNs:      j.finished.Nanoseconds(),
		LedgerURL:   "/v1/jobs/" + j.ID + "/ledger",
	}
	st.TraceURL = "/v1/jobs/" + j.ID + "/trace"
	st.EventsURL = "/v1/jobs/" + j.ID + "/events"
	if j.state == StateRunning {
		snap := j.prog.Snapshot()
		st.Progress = &snap
	}
	st.Sweep = j.rec.LatestSweep()
	if j.state == StateDone {
		st.ResultURL = "/v1/jobs/" + j.ID + "/result"
	}
	return st
}

// observeStage is the job's core.Experiment.OnStage hook: it feeds both
// the progress tracker (job status) and the span recorder (live stream).
func (j *Job) observeStage(workload string, stage metrics.Stage) {
	j.prog.Observe(workload, stage)
	j.rec.StageBegin(workload, stage)
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the rendered result bytes, or an error naming the
// non-done state.
func (j *Job) Result() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, fmt.Errorf("job %s is %s, not done", j.ID, j.state)
	}
	return j.result, nil
}

// Done returns the channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Manager owns the server's asynchronous jobs: an exec.Pool of workers
// executing them, the registry of every job submitted this process, and
// the shutdown drain. Job IDs are sequential per process — they name a
// row in this registry, nothing durable.
type Manager struct {
	srv   *Server
	work  func(context.Context, *Job, *metrics.Collector) ([]byte, error) // srv.execute; tests replace it
	pool  *exec.Pool
	mc    *metrics.Collector
	epoch time.Time

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu         sync.Mutex
	jobs       map[string]*Job
	order      []string
	seq        int
	running    int
	maxRunning int // high-water mark, observed by the concurrency test
	closed     bool
}

func newManager(srv *Server) *Manager {
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		srv:        srv,
		work:       srv.execute,
		pool:       exec.NewPool(srv.cfg.Workers, srv.cfg.Queue, srv.mc),
		mc:         srv.mc,
		epoch:      time.Now(),
		baseCtx:    ctx,
		cancelBase: cancel,
		jobs:       make(map[string]*Job),
	}
}

// Submit validates nothing (the HTTP layer already did), hands the job
// to the pool, and registers it. ErrBusy means the queue is full;
// ErrDraining means shutdown has begun.
func (m *Manager) Submit(req JobRequest) (*Job, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.seq++
	id := fmt.Sprintf("job-%04d", m.seq)
	m.mu.Unlock()

	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		ID:        id,
		Req:       req,
		ctx:       ctx,
		cancel:    cancel,
		prog:      benchsuite.NewProgress(progressTotal(req)),
		ledger:    &lockedBuffer{},
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Since(m.epoch),
	}
	j.lw = ledger.New(j.ledger)
	// The recorder shares the job ledger's epoch, so trace span offsets
	// line up with the ledger's own span events. The per-job collector
	// attaches in run() — SetWatch — once the pool hands one over.
	j.hub = telemetry.NewHub(0)
	j.rec = telemetry.NewRecorder(j.lw.Epoch(), nil, j.hub)
	j.rec.State(string(StateQueued))
	// Register only after the pool accepts the job: a refused job is
	// never visible, so nothing — Drain included — can end up waiting on
	// a done channel that will never close. The sequence number is not
	// reused on refusal: a concurrent Submit may already hold the next
	// one.
	if !m.pool.TrySubmit(func(wmc *metrics.Collector) { m.run(j, wmc) }) {
		cancel()
		m.mc.Add(metrics.ServerJobsRejected, 1)
		return nil, ErrBusy
	}
	m.mu.Lock()
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.mu.Unlock()
	m.mc.Add(metrics.ServerJobsSubmitted, 1)
	return j, nil
}

// progressTotal is the number of workload pipelines the job runs.
func progressTotal(req JobRequest) int {
	if req.Kind != KindSuite {
		return 1
	}
	if len(req.Workloads) > 0 {
		return len(req.Workloads)
	}
	return len(workload.Names())
}

// run executes one job on a pool worker.
func (m *Manager) run(j *Job, wmc *metrics.Collector) {
	// The queued->running transition is atomic with the terminal check:
	// Cancel may finalize a queued job at any instant, and a dequeue that
	// checked and then transitioned in separate critical sections could
	// overwrite the terminal state, run with a cancelled context, and
	// finish (close done) a second time.
	j.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while queued: Cancel already finalized the job.
		j.mu.Unlock()
		return
	}
	if err := j.ctx.Err(); err != nil {
		j.mu.Unlock()
		m.finish(j, StateCancelled, nil, err)
		return
	}
	j.state = StateRunning
	j.started = time.Since(m.epoch)
	j.mu.Unlock()
	j.rec.SetWatch(wmc)
	j.rec.State(string(StateRunning))
	m.mu.Lock()
	m.running++
	if m.running > m.maxRunning {
		m.maxRunning = m.running
	}
	m.mu.Unlock()

	start := time.Now()
	result, err := m.execute(j, wmc)
	wmc.Observe(metrics.HistJobNanos, uint64(time.Since(start).Nanoseconds()))

	m.mu.Lock()
	m.running--
	m.mu.Unlock()

	switch {
	case err == nil:
		m.finish(j, StateDone, result, nil)
	case errors.Is(err, context.Canceled):
		m.finish(j, StateCancelled, nil, err)
	default:
		m.finish(j, StateFailed, nil, err)
	}
}

// execute runs the job's computation and turns a panic on the job's
// goroutine into the job's error, carrying the panic value and stack: a
// panicking job fails that job, not the daemon.
func (m *Manager) execute(j *Job, wmc *metrics.Collector) (result []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			m.mc.Add(metrics.JobPanics, 1)
			result, err = nil, fmt.Errorf("server: job panicked: %v\n%s", v, debug.Stack())
		}
	}()
	return m.work(j.ctx, j, wmc)
}

// finish moves the job to a terminal state exactly once: it seals the
// ledger, stamps the finish time, bumps the outcome counter, applies
// retention, and closes the done channel.
func (m *Manager) finish(j *Job, state JobState, result []byte, err error) {
	m.finishFrom(j, "", state, result, err)
}

// finishFrom is finish gated on the job's current state: when from is
// non-empty, the transition happens only if the job is still in that
// state. Cancel uses it so finalizing a queued job cannot race a worker
// that just won the queued->running transition — whichever side moves
// the state first owns the terminal transition.
func (m *Manager) finishFrom(j *Job, from, state JobState, result []byte, err error) {
	j.mu.Lock()
	if j.state.Terminal() || (from != "" && j.state != from) {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = result
	if err != nil {
		j.errMsg = err.Error()
	}
	j.finished = time.Since(m.epoch)
	// Count the outcome while the state is still locked, so a client that
	// sees the terminal state also sees it counted in /metrics.
	switch state {
	case StateDone:
		m.mc.Add(metrics.ServerJobsDone, 1)
	case StateFailed:
		m.mc.Add(metrics.ServerJobsFailed, 1)
	case StateCancelled:
		m.mc.Add(metrics.ServerJobsCancelled, 1)
	}
	j.mu.Unlock()

	// Seal the telemetry before the ledger: Finish closes open spans and
	// ends every subscriber's stream (the terminal "done" event), and the
	// completed span tree lands in the job ledger as its trace event —
	// inside the sealed stream, so replaying the ledger recovers it.
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	j.rec.Finish(string(state), errMsg)
	j.lw.Trace(jobTrace(j, state, errMsg))
	_ = j.lw.Close()
	j.cancel()
	// Trim the registry before waking waiters, so a client told the job
	// finished already sees retention applied.
	m.evict()
	close(j.done)
}

// jobTrace converts the job's recorded span tree and terminal error into
// the ledger's trace event (ledger schema v5).
func jobTrace(j *Job, state JobState, errMsg string) ledger.Trace {
	spans := j.rec.Snapshot()
	t := ledger.Trace{
		Job:   j.ID,
		Kind:  string(j.Req.Kind),
		State: string(state),
		Error: errMsg,
		Spans: make([]ledger.TraceSpan, len(spans)),
	}
	for i, sp := range spans {
		ts := ledger.TraceSpan{
			ID:       sp.ID,
			Parent:   sp.Parent,
			Workload: sp.Workload,
			Stage:    sp.Stage,
			Label:    sp.Label,
			StartNs:  sp.StartNs,
			EndNs:    sp.EndNs,
		}
		for _, cd := range sp.Counters {
			ts.Counters = append(ts.Counters, ledger.CounterDelta{Name: cd.Name, Delta: cd.Delta})
		}
		t.Spans[i] = ts
	}
	return t
}

// evict trims the registry after a job finalizes: once more than
// cfg.RetainJobs jobs are terminal, the oldest terminal ones are
// dropped — with the result and ledger bytes they pin — so a
// long-running daemon's memory and job listing stay bounded. Evicted
// IDs 404 afterwards; queued and running jobs are never evicted.
func (m *Manager) evict() {
	retain := m.srv.cfg.RetainJobs
	if retain < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	terminal := 0
	for _, id := range m.order {
		if m.jobs[id].State().Terminal() {
			terminal++
		}
	}
	if terminal <= retain {
		return
	}
	evicted := terminal - retain
	keep := make([]string, 0, len(m.order)-evicted)
	for _, id := range m.order {
		if terminal > retain && m.jobs[id].State().Terminal() {
			delete(m.jobs, id)
			terminal--
			continue
		}
		keep = append(keep, id)
	}
	m.order = keep
	m.mc.Add(metrics.ServerJobsEvicted, uint64(evicted))
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// List returns every job in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, len(m.order))
	for i, id := range m.order {
		out[i] = m.jobs[id]
	}
	return out
}

// Cancel requests cancellation of a job. A queued job finalizes
// immediately; a running one stops at its next pipeline stage boundary.
// It reports false when the job was already terminal.
func (m *Manager) Cancel(j *Job) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.mu.Unlock()
	j.cancel()
	// Finalize a still-queued job now so clients see the final state
	// immediately (the pool will dequeue it, see it terminal, and skip
	// it). The transition is gated on the state inside finishFrom: if a
	// worker won the queued->running race in the meantime, it keeps
	// ownership of the terminal transition and the cancelled context
	// stops it at the next stage boundary instead.
	m.finishFrom(j, StateQueued, StateCancelled, nil, context.Canceled)
	return true
}

// StateCounts tallies jobs by state, for /healthz.
func (m *Manager) StateCounts() map[string]int {
	counts := make(map[string]int)
	for _, j := range m.List() {
		counts[string(j.State())]++
	}
	return counts
}

// MaxRunning returns the high-water mark of concurrently running jobs.
func (m *Manager) MaxRunning() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.maxRunning
}

// Drain performs the graceful shutdown: stop accepting submissions, give
// in-flight jobs until the deadline to finish, then cancel whatever
// remains and wait for the workers to stop. It returns the number of
// jobs that had to be cancelled.
func (m *Manager) Drain(timeout time.Duration) int {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	expired := false
	for _, j := range m.List() {
		if expired {
			break
		}
		select {
		case <-j.Done():
		case <-deadline.C:
			expired = true
		}
	}

	cancelled := 0
	for _, j := range m.List() {
		if !j.State().Terminal() {
			j.cancel()
			cancelled++
		}
	}
	m.cancelBase()
	// Close the pool: workers drain the queue (every queued job sees its
	// cancelled context and finalizes) and exit after their current job.
	m.pool.Close()
	// Finalize anything the workers skipped as already-cancelled-queued.
	for _, j := range m.List() {
		if !j.State().Terminal() {
			m.finish(j, StateCancelled, nil, context.Canceled)
		}
	}
	return cancelled
}
