package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testScale keeps test jobs fast: the probe measures the service, not
// the pipeline.
const testScale = 0.02

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Scale == 0 {
		cfg.Scale = testScale
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close(10 * time.Second)
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodeStatus(t *testing.T, data []byte) JobStatus {
	t.Helper()
	var js JobStatus
	if err := json.Unmarshal(data, &js); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	return js
}

// waitTerminal polls the status endpoint until the job leaves the
// queued/running states.
func waitTerminal(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body := get(t, base+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll: %s: %s", resp.Status, body)
		}
		js := decodeStatus(t, body)
		if js.State.Terminal() {
			return js
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, js.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Parallelism: 2})

	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"eval","workload":"espresso"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	js := decodeStatus(t, body)
	if js.ID == "" || js.Kind != KindEval {
		t.Fatalf("bad submit status: %+v", js)
	}

	final := waitTerminal(t, ts.URL, js.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}
	if final.ResultURL == "" {
		t.Fatal("done job has no result URL")
	}
	if final.DoneNs < final.StartedNs || final.StartedNs < final.SubmittedNs {
		t.Fatalf("timestamps out of order: %+v", final)
	}

	resp, result := get(t, ts.URL+final.ResultURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s", resp.Status)
	}
	if !bytes.Contains(result, []byte(`"program": "espresso"`)) {
		t.Fatalf("result does not look like a report: %.200s", result)
	}

	resp, led := get(t, ts.URL+final.LedgerURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ledger: %s", resp.Status)
	}
	for _, kind := range []string{"workload_start", "placement", "eval", "workload_end"} {
		if !bytes.Contains(led, []byte(kind)) {
			t.Errorf("job ledger missing %q events", kind)
		}
	}

	resp, body = get(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %s", resp.Status)
	}
	var list JobList
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != js.ID {
		t.Fatalf("list = %+v, want the one job", list.Jobs)
	}
}

func TestSubmitWaitBlocksUntilDone(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=true", `{"kind":"place","workload":"compress"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait submit: %s: %s", resp.Status, body)
	}
	js := decodeStatus(t, body)
	if js.State != StateDone {
		t.Fatalf("wait=true returned state %s (%s), want done", js.State, js.Error)
	}
	resp, result := get(t, ts.URL+js.ResultURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s", resp.Status)
	}
	if !bytes.Contains(result, []byte(`"globals"`)) {
		t.Fatalf("placement plan missing globals: %.200s", result)
	}
}

func TestJobKinds(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Parallelism: 2})
	cases := []struct {
		body string
		want string // substring of the result document
	}{
		{`{"kind":"explain","workload":"espresso","inputs":["test"]}`, `"heatmap"`},
		{`{"kind":"sweep","workload":"espresso","grid":{"sizes":[4096,8192]}}`, `"Pareto"`},
		{`{"kind":"suite","workloads":["espresso","compress"]}`, `"program": "compress"`},
	}
	for _, tt := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", tt.body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit %s: %s", tt.body, resp.Status, body)
		}
		js := waitTerminal(t, ts.URL, decodeStatus(t, body).ID)
		if js.State != StateDone {
			t.Fatalf("%s: finished %s (%s)", tt.body, js.State, js.Error)
		}
		_, result := get(t, ts.URL+js.ResultURL)
		if !bytes.Contains(result, []byte(tt.want)) {
			t.Errorf("%s: result missing %q: %.200s", tt.body, tt.want, result)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		body string
		want int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"bogus":1}`, http.StatusBadRequest},
		{`{"kind":"launch","workload":"espresso"}`, http.StatusBadRequest},
		{`{"kind":"eval"}`, http.StatusBadRequest},
		{`{"kind":"eval","workload":"espresso","scale":-1}`, http.StatusBadRequest},
		{`{"kind":"eval","workload":"espresso","scale":9000}`, http.StatusBadRequest},
		{`{"kind":"eval","workload":"espresso","layouts":["upside-down"]}`, http.StatusBadRequest},
		{`{"kind":"eval","workload":"espresso","inputs":["prod"]}`, http.StatusBadRequest},
		{`{"kind":"eval","workload":"espresso","cache":{"size":3000}}`, http.StatusBadRequest},
		{`{"kind":"eval","workload":"espresso","grid":{}}`, http.StatusBadRequest},
		{`{"kind":"suite","workload":"espresso"}`, http.StatusBadRequest},
		// Suite jobs run the fixed harness pipeline: overrides that the
		// suite cannot honor are rejected, not silently ignored.
		{`{"kind":"suite","cache":{"size":8192}}`, http.StatusBadRequest},
		{`{"kind":"suite","profile":{"chunk":512}}`, http.StatusBadRequest},
		{`{"kind":"suite","layouts":["ccdp"]}`, http.StatusBadRequest},
		{`{"kind":"suite","inputs":["test"]}`, http.StatusBadRequest},
		{`{"kind":"sweep","workload":"espresso","grid":{"sizes":[1024,2048,4096,8192],"blocks":[16,32,64],"assocs":[1,2,4],"chunks":[64,128,256],"queues":[4096,8192],"layouts":["natural","ccdp","random"]}}`, http.StatusBadRequest},
		{`{"kind":"eval","workload":"doom"}`, http.StatusNotFound},
		{`{"kind":"suite","workloads":["doom"]}`, http.StatusNotFound},
	}
	for _, tt := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", tt.body)
		if resp.StatusCode != tt.want {
			t.Errorf("%s -> %d (%s), want %d", tt.body, resp.StatusCode, body, tt.want)
		}
		var ae apiError
		if err := json.Unmarshal(body, &ae); err != nil || ae.Error == "" {
			t.Errorf("%s: error body %s not an apiError", tt.body, body)
		}
	}

	if resp, _ := get(t, ts.URL+"/v1/jobs/job-9999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status -> %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/job-9999/result"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job result -> %d, want 404", resp.StatusCode)
	}
}

// TestCancellation holds a single worker busy, queues a second job, and
// cancels it: a queued job must finalize immediately, and cancelling a
// terminal job must 409.
func TestCancellation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Scale: benchsuite.DefaultScale})

	_, blockerBody := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"eval","workload":"gcc"}`)
	blocker := decodeStatus(t, blockerBody)

	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"eval","workload":"espresso"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: %s", resp.Status)
	}
	queued := decodeStatus(t, body)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %s, want 202", dresp.Status)
	}
	js := waitTerminal(t, ts.URL, queued.ID)
	if js.State != StateCancelled {
		t.Fatalf("cancelled job finished %s, want cancelled", js.State)
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/"+queued.ID+"/result"); resp.StatusCode != http.StatusConflict {
		t.Errorf("result of cancelled job -> %d, want 409", resp.StatusCode)
	}

	// Cancelling an already-terminal job conflicts.
	dresp2, err := http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusConflict {
		t.Errorf("double cancel: %s, want 409", dresp2.Status)
	}

	// Cancel the running blocker too: it must stop at a stage boundary
	// well before a full-scale gcc run would finish.
	breq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, nil)
	bresp, err := http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bjs := waitTerminal(t, ts.URL, blocker.ID); bjs.State != StateCancelled && bjs.State != StateDone {
		t.Fatalf("blocker finished %s", bjs.State)
	}
}

// TestConcurrencyBoundedByPool floods a 2-worker server and verifies the
// pool never ran more than 2 jobs at once and that overflow submissions
// were rejected with 503 once the queue filled.
func TestConcurrencyBoundedByPool(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Queue: 2, Parallelism: 1})

	const n = 24
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted []string
		rejected int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"eval","workload":"espresso"}`)
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusAccepted:
				accepted = append(accepted, decodeStatus(t, body).ID)
			case http.StatusServiceUnavailable:
				rejected++
			default:
				t.Errorf("submit: %s: %s", resp.Status, body)
			}
		}()
	}
	wg.Wait()
	if len(accepted) == 0 {
		t.Fatal("no submission accepted")
	}
	if rejected == 0 {
		t.Fatalf("no submission rejected: %d accepted with workers=2 queue=2", len(accepted))
	}
	for _, id := range accepted {
		if js := waitTerminal(t, ts.URL, id); js.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", id, js.State, js.Error)
		}
	}
	if max := s.Jobs().MaxRunning(); max > 2 {
		t.Fatalf("max concurrent jobs %d, want <= 2", max)
	}
	// Refused submissions are never registered: nothing (the shutdown
	// drain included) can end up waiting on a job that will never run.
	if got := len(s.Jobs().List()); got != len(accepted) {
		t.Fatalf("registry holds %d jobs, want the %d accepted", got, len(accepted))
	}
}

// TestRetention verifies terminal-job eviction: with RetainJobs=2, older
// finished jobs fall out of the registry (404) while the newest stay
// queryable, bounding a long-running daemon's memory.
func TestRetention(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RetainJobs: 2})

	var ids []string
	for i := 0; i < 5; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=true", `{"kind":"eval","workload":"espresso"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: %s: %s", i, resp.Status, body)
		}
		js := decodeStatus(t, body)
		if js.State != StateDone {
			t.Fatalf("job %d finished %s (%s)", i, js.State, js.Error)
		}
		ids = append(ids, js.ID)
	}

	resp, body := get(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %s", resp.Status)
	}
	var list JobList
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("list holds %d jobs, want the 2 retained", len(list.Jobs))
	}
	if list.Jobs[0].ID != ids[3] || list.Jobs[1].ID != ids[4] {
		t.Fatalf("retained %s/%s, want the newest %s/%s",
			list.Jobs[0].ID, list.Jobs[1].ID, ids[3], ids[4])
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/"+ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job status -> %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/"+ids[4]+"/result"); resp.StatusCode != http.StatusOK {
		t.Errorf("retained job result -> %d, want 200", resp.StatusCode)
	}
	if got := s.cfg.Metrics.Get(metrics.ServerJobsEvicted); got != 3 {
		t.Errorf("evicted counter = %d, want 3", got)
	}
}

// TestCancelSubmitRace hammers the queued->running handoff: submitting
// and immediately cancelling must never resurrect a finalized job or
// close its done channel twice (which would panic the daemon), whichever
// side wins the dequeue race.
func TestCancelSubmitRace(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, Queue: 64, RetainJobs: -1})
	mgr := s.Jobs()

	const n = 40
	var wg sync.WaitGroup
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, err := mgr.Submit(JobRequest{Kind: KindEval, Workload: "espresso", Scale: testScale})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
		wg.Add(1)
		go func(j *Job) {
			defer wg.Done()
			mgr.Cancel(j)
		}(j)
	}
	wg.Wait()
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s never finalized (state %s)", j.ID, j.State())
		}
		if st := j.State(); st != StateCancelled && st != StateDone {
			t.Errorf("job %s finalized as %s", j.ID, st)
		}
	}
}

// TestServerResultMatchesCore is the determinism contract: the bytes the
// server returns for an eval job are identical to rendering the same
// experiment run directly through core.RunExperiment — same workload,
// same scale, independent process state, different parallelism.
func TestServerResultMatchesCore(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Parallelism: 3})

	body := fmt.Sprintf(`{"kind":"eval","workload":"espresso","scale":%g}`, testScale)
	resp, sub := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	js := waitTerminal(t, ts.URL, decodeStatus(t, sub).ID)
	if js.State != StateDone {
		t.Fatalf("job finished %s (%s)", js.State, js.Error)
	}
	_, served := get(t, ts.URL+js.ResultURL)

	w, err := workload.Get("espresso")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	cmp, err := core.RunExperiment(core.Experiment{
		Workload: w,
		Options:  opts,
		Inputs:   benchsuite.ScaledInputs(w, testScale),
	})
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := report.WriteJSON(&direct, []*core.Comparison{cmp}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, direct.Bytes()) {
		t.Fatalf("server result differs from direct core run:\nserver: %.400s\ndirect: %.400s",
			served, direct.Bytes())
	}
}

func TestWorkloadsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/v1/workloads")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workloads: %s", resp.Status)
	}
	var infos []WorkloadInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 9 {
		t.Fatalf("%d workloads, want the paper's 9", len(infos))
	}
	if infos[0].Name != "deltablue" || !infos[0].HeapPlacement {
		t.Fatalf("first workload %+v, want deltablue with heap placement", infos[0])
	}

	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers == 0 {
		t.Fatalf("health = %+v", h)
	}
}

// TestGracefulShutdown verifies Close lets a running job finish inside
// the deadline and refuses new submissions afterwards.
func TestGracefulShutdown(t *testing.T) {
	mc := metrics.New()
	s := New(Config{Scale: testScale, Workers: 1, Metrics: mc})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"eval","workload":"espresso"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	id := decodeStatus(t, body).ID

	s.Close(30 * time.Second)
	j := s.Jobs().Get(id)
	if st := j.State(); st != StateDone {
		t.Fatalf("job %s after drain: %s (%s), want done", id, st, j.Status().Error)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"eval","workload":"espresso"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: %d, want 503", resp.StatusCode)
	}
}

// TestShutdownCancelsAtDeadline verifies a zero-deadline drain cancels
// rather than waits.
func TestShutdownCancelsAtDeadline(t *testing.T) {
	mc := metrics.New()
	s := New(Config{Scale: benchsuite.DefaultScale, Workers: 1, Metrics: mc})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"eval","workload":"gcc"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	id := decodeStatus(t, body).ID
	s.Close(0)
	if st := s.Jobs().Get(id).State(); !st.Terminal() {
		t.Fatalf("job %s not terminal after deadline drain: %s", id, st)
	}
}

// TestLoadHarness drives the real HTTP load generator against the
// server and checks the report's accounting.
func TestLoadHarness(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 32})
	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:  ts.URL,
		Body:     []byte(fmt.Sprintf(`{"kind":"eval","workload":"espresso","scale":%g}`, testScale)),
		QPS:      10,
		Duration: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 {
		t.Fatalf("no successful round trips: %s", rep)
	}
	if rep.Failed > 0 {
		t.Fatalf("failures under nominal load: %s (first: %s)", rep, rep.FirstByte)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("implausible percentiles: %s", rep)
	}
}

func TestGracefulListener(t *testing.T) {
	g, err := Listen("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("got %s", resp.Status)
	}
	if err := g.Close(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + g.Addr()); err == nil {
		t.Fatal("listener still accepting after Close")
	}
}

// TestJobPanicFailsOnlyThatJob panics one job through the manager's work
// seam: that job must fail with the panic value and stack in
// its status and its ledger, the panic counter must count it, and the
// next job on the same worker must still complete.
func TestJobPanicFailsOnlyThatJob(t *testing.T) {
	mc := metrics.New()
	s, ts := newTestServer(t, Config{Workers: 1, Metrics: mc})
	run := s.mgr.work
	var calls atomic.Int32
	s.mgr.work = func(ctx context.Context, j *Job, wmc *metrics.Collector) ([]byte, error) {
		if calls.Add(1) == 1 {
			panic("boom")
		}
		return run(ctx, j, wmc)
	}

	_, body := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"place","workload":"compress"}`)
	id := decodeStatus(t, body).ID
	failed := waitTerminal(t, ts.URL, id)
	<-s.mgr.Get(id).Done() // the ledger is sealed
	if failed.State != StateFailed || !strings.Contains(failed.Error, "job panicked: boom") || !strings.Contains(failed.Error, "goroutine") {
		t.Fatalf("panicking job finished %s with error %q, want failed with the panic value and stack", failed.State, failed.Error)
	}
	_, led := get(t, ts.URL+failed.LedgerURL)
	if !bytes.Contains(led, []byte(`"state":"failed","error":"server: job panicked: boom\n`)) {
		t.Fatalf("job ledger lacks the panic: %s", led)
	}
	if got := mc.Get(metrics.JobPanics); got != 1 {
		t.Fatalf("%s = %d, want 1", metrics.JobPanics, got)
	}

	_, body = postJSON(t, ts.URL+"/v1/jobs", `{"kind":"place","workload":"compress"}`)
	if next := waitTerminal(t, ts.URL, decodeStatus(t, body).ID); next.State != StateDone {
		t.Fatalf("job after the panic finished %s (%s), want done", next.State, next.Error)
	}
	_, prom := get(t, ts.URL+"/metrics")
	if !bytes.Contains(prom, []byte("ccdp_job_panics_total 1")) {
		t.Fatalf("/metrics lacks ccdp_job_panics_total 1")
	}
}
