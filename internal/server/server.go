// Package server is the placement-as-a-service layer: a long-running
// HTTP daemon (cmd/ccdpd) that owns the workload pool, the shared
// content-addressed trace store, and a bounded worker pool, and serves
// the repository's pipeline — placement plans, miss-rate predictions,
// layout sweeps, miss-attribution heatmaps — through a versioned
// asynchronous job API:
//
//	POST   /v1/jobs            submit a job (202; ?wait=true blocks)
//	GET    /v1/jobs            list jobs in submission order
//	GET    /v1/jobs/{id}       status + live stage/sweep progress
//	GET    /v1/jobs/{id}/result  rendered result (done jobs only)
//	GET    /v1/jobs/{id}/ledger  the job's structured run ledger (JSONL)
//	GET    /v1/jobs/{id}/trace   the job's span tree (JSON)
//	GET    /v1/jobs/{id}/events  live event stream (SSE; ?poll=1 long-poll)
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /v1/workloads       the workload pool
//	GET    /healthz            liveness + job-state tallies
//	GET    /metrics            Prometheus text exposition
//	GET    /debug/snapshot     live metrics + pprof under /debug/pprof/
//
// Results are deterministic: a job's rendered bytes are identical to
// running the same experiment through the core package directly, which
// is what lets CI diff a server response against the CLI's output.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config parameterises a Server.
type Config struct {
	// Scale is the default trace scale for jobs that don't set one
	// (0 selects benchsuite.DefaultScale). MaxScale caps per-request
	// scales (0 selects 1.0, the full reproduction scale).
	Scale    float64
	MaxScale float64
	// Parallelism is each job's inner worker fan-out (<= 1 sequential).
	Parallelism int
	// Workers bounds concurrently running jobs (0 selects 2); Queue
	// bounds queued-but-not-running jobs (0 selects 16). Submissions
	// beyond both get 503.
	Workers int
	Queue   int
	// MaxSweepCells caps a sweep request's expanded grid (0 selects 256).
	MaxSweepCells int
	// RetainJobs caps how many terminal jobs stay queryable: once more
	// are terminal, the oldest are evicted with the result and ledger
	// bytes they pin, and their IDs 404 (0 selects 256; negative retains
	// everything — unbounded memory under steady traffic).
	RetainJobs int
	// Trace configures the shared trace store every job runs against.
	Trace sim.TraceConfig
	// Metrics receives server and pipeline instrumentation.
	Metrics *metrics.Collector
	// Logf, when non-nil, receives one line per request and per job
	// transition (nil = silent).
	Logf func(format string, args ...any)
}

// Server is the placement service: the HTTP handler plus the job
// manager behind it. Create with New, serve Handler(), stop with Close.
type Server struct {
	cfg Config
	mc  *metrics.Collector
	mgr *Manager
	mux *http.ServeMux
	// profiles memoizes profiling passes across the server's eval, place
	// and explain jobs for its whole lifetime.
	profiles *core.ProfileMemo
}

// New builds a Server; it does not listen (callers mount Handler on a
// listener of their choosing — net/http, httptest, or Graceful).
func New(cfg Config) *Server {
	if cfg.Scale == 0 {
		cfg.Scale = benchsuite.DefaultScale
	}
	if cfg.MaxScale == 0 {
		cfg.MaxScale = 1.0
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	if cfg.MaxSweepCells <= 0 {
		cfg.MaxSweepCells = 256
	}
	if cfg.RetainJobs == 0 {
		cfg.RetainJobs = 256
	}
	s := &Server{cfg: cfg, mc: cfg.Metrics, profiles: core.NewProfileMemo(cfg.Metrics)}
	s.mgr = newManager(s)
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Handler returns the full route tree wrapped in the request-metrics
// middleware.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.mux.ServeHTTP(w, r)
		s.mc.Add(metrics.ServerRequests, 1)
		s.mc.Observe(metrics.HistRequestNanos, uint64(time.Since(start).Nanoseconds()))
		s.logf("%s %s (%s)", r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond))
	})
}

// Close drains the job manager: running jobs get until the timeout to
// finish, the rest are cancelled. The server accepts no jobs afterwards.
func (s *Server) Close(timeout time.Duration) {
	if n := s.mgr.Drain(timeout); n > 0 {
		s.logf("shutdown: cancelled %d job(s) at deadline", n)
	}
}

// Jobs exposes the job manager (tests and the load harness poll it).
func (s *Server) Jobs() *Manager { return s.mgr }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/ledger", s.handleLedger)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.Handle("GET /metrics", metrics.PromHandler(s.mc))
	s.mux.HandleFunc("GET /debug/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// writeJSON emits one response body as indented JSON.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{
		Status:  "ok",
		Epoch:   s.mgr.epoch.UTC().Format(time.RFC3339),
		Jobs:    s.mgr.StateCounts(),
		Workers: s.mgr.pool.Workers(),
	})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var out []WorkloadInfo
	for _, wl := range workload.All() {
		out = append(out, WorkloadInfo{
			Name:          wl.Name(),
			Description:   wl.Description(),
			HeapPlacement: wl.HeapPlacement(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// maxRequestBytes caps a POST /v1/jobs body. The largest legitimate
// request, a sweep grid at the cell limit, is a few KiB.
const maxRequestBytes = 1 << 20

// handleSubmit accepts a job. The default reply is 202 with the job's
// status; ?wait=true ties the job to the request — the handler blocks
// until the job finishes and replies with its final status, and a client
// that disconnects while waiting cancels the job. A body above
// maxRequestBytes is refused with 413 before any job exists.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body above %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if err := s.validate(&req); err != nil {
		var re *requestError
		if errors.As(err, &re) {
			writeError(w, re.status, "%s", re.msg)
		} else {
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	j, err := s.mgr.Submit(req)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.logf("job %s: %s %s submitted", j.ID, j.Req.Kind, j.Req.Workload)
	if r.URL.Query().Get("wait") != "true" {
		writeJSON(w, http.StatusAccepted, j.Status())
		return
	}
	select {
	case <-j.Done():
		writeJSON(w, http.StatusOK, j.Status())
	case <-r.Context().Done():
		// Client abort cancels the in-flight work it was waiting on.
		s.mgr.Cancel(j)
		<-j.Done()
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	list := JobList{Jobs: []JobStatus{}}
	for _, j := range s.mgr.List() {
		list.Jobs = append(list.Jobs, j.Status())
	}
	writeJSON(w, http.StatusOK, list)
}

// job resolves the {id} path value, writing the 404 itself on a miss.
func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	j := s.mgr.Get(id)
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	data, err := j.Result()
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *Server) handleLedger(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	// Mid-run this serves what the writer has flushed so far; once the
	// job is terminal the ledger is sealed and complete.
	w.Header().Set("Content-Type", "application/jsonl")
	_, _ = w.Write(j.ledger.Bytes())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	if !s.mgr.Cancel(j) {
		writeError(w, http.StatusConflict, "job %s already %s", j.ID, j.State())
		return
	}
	s.logf("job %s: cancelled by client", j.ID)
	writeJSON(w, http.StatusAccepted, j.Status())
}

// handleSnapshot mirrors the ccdpbench -debug-addr snapshot: the live
// metrics plus, here, every job's status and the Go runtime's vitals
// (goroutines, heap in use, GC pauses).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var jobs []JobStatus
	for _, j := range s.mgr.List() {
		jobs = append(jobs, j.Status())
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs    []JobStatus             `json:"jobs"`
		Metrics metrics.Snapshot        `json:"metrics"`
		Runtime metrics.RuntimeSnapshot `json:"runtime"`
	}{Jobs: jobs, Metrics: s.mc.Snapshot(), Runtime: metrics.ReadRuntime()})
}
