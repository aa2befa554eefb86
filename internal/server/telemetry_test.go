package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	id    uint64
	event string
	data  telemetry.Event
}

// streamSSE opens the events endpoint and reads frames until the server
// ends the stream (which it does after the terminal "done" event).
func streamSSE(t *testing.T, url, lastEventID string) []sseFrame {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	return parseSSE(t, bufio.NewScanner(resp.Body))
}

func parseSSE(t *testing.T, sc *bufio.Scanner) []sseFrame {
	t.Helper()
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var frames []sseFrame
	var cur sseFrame
	dirty := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if dirty {
				frames = append(frames, cur)
				cur = sseFrame{}
				dirty = false
			}
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseUint(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.id = n
			dirty = true
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
			dirty = true
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &cur.data); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			dirty = true
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestSSELifecycle subscribes to a job's event stream, follows it to the
// terminal event, and resumes from a mid-stream cursor with
// Last-Event-ID — the EventSource reconnect contract.
func TestSSELifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, sub := postJSON(t, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"eval","workload":"espresso","scale":%g}`, testScale))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	js := decodeStatus(t, sub)
	if js.EventsURL == "" || js.TraceURL == "" {
		t.Fatalf("status missing telemetry URLs: %+v", js)
	}

	// Subscribe mid-job (or just after; the retained window replays the
	// whole stream either way) and read to EOF.
	frames := streamSSE(t, ts.URL+js.EventsURL, "")
	if len(frames) < 4 {
		t.Fatalf("only %d frames", len(frames))
	}
	var prev uint64
	kinds := map[string]int{}
	for _, f := range frames {
		if f.id <= prev {
			t.Fatalf("SSE ids not ascending: %d after %d", f.id, prev)
		}
		prev = f.id
		if f.event != f.data.Kind {
			t.Fatalf("frame event %q != data kind %q", f.event, f.data.Kind)
		}
		kinds[f.event]++
	}
	last := frames[len(frames)-1]
	if last.event != telemetry.EventDone || last.data.State == nil || last.data.State.State != string(StateDone) {
		t.Fatalf("stream did not end with a done event: %+v", last)
	}
	if kinds[telemetry.EventSpan] == 0 || kinds[telemetry.EventStage] == 0 {
		t.Fatalf("stream missing span/stage events: %v", kinds)
	}

	// Resume after a disconnect: a client that saw the first half asks
	// for everything after its cursor and gets exactly the suffix.
	mid := frames[len(frames)/2]
	resumed := streamSSE(t, ts.URL+js.EventsURL, strconv.FormatUint(mid.id, 10))
	if want := len(frames) - len(frames)/2 - 1; len(resumed) != want {
		t.Fatalf("resume after id %d returned %d frames, want %d", mid.id, len(resumed), want)
	}
	if resumed[0].id != mid.id+1 {
		t.Fatalf("resume started at id %d, want %d", resumed[0].id, mid.id+1)
	}

	// The long-poll fallback returns the same stream as one JSON page,
	// closed once the terminal event is included.
	_, body := get(t, ts.URL+js.EventsURL+"?poll=1")
	var page EventPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != len(frames) {
		t.Fatalf("poll returned %d events, SSE %d", len(page.Events), len(frames))
	}
	// The page drained an open hub mid-call? No: the job is terminal, so
	// one more poll past the end reports the stream closed.
	_, body = get(t, ts.URL+js.EventsURL+"?after="+strconv.FormatUint(prev, 10)+"&poll=1")
	page = EventPage{}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if page.Open || len(page.Events) != 0 {
		t.Fatalf("poll past the terminal event: %+v", page)
	}

	// Garbage cursors are a client error, not a hang.
	badResp, _ := get(t, ts.URL+js.EventsURL+"?after=nonsense")
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor: %s", badResp.Status)
	}
}

// TestSSESlowConsumerDropped drives the SSE renderer against a hub whose
// window already lost events: the client must get a synthesized
// "dropped" frame counting the loss, then the surviving suffix.
func TestSSESlowConsumerDropped(t *testing.T) {
	s := New(Config{Metrics: metrics.New()})
	j := &Job{ID: "job-test", hub: telemetry.NewHub(4)}
	for i := 0; i < 10; i++ {
		j.hub.Publish(telemetry.Event{Kind: telemetry.EventState, State: &telemetry.StateChange{State: "running"}})
	}
	j.hub.Close()

	rec := httptest.NewRecorder()
	s.serveSSE(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/job-test/events", nil), j, 0)
	frames := parseSSE(t, bufio.NewScanner(rec.Body))
	if len(frames) != 5 {
		t.Fatalf("%d frames, want dropped + 4 retained", len(frames))
	}
	if frames[0].event != telemetry.EventDropped || frames[0].data.Skipped != 6 {
		t.Fatalf("first frame %+v, want dropped with skipped 6", frames[0])
	}
	for i, f := range frames[1:] {
		if f.id != uint64(7+i) {
			t.Fatalf("retained frame %d has id %d, want %d", i, f.id, 7+i)
		}
	}
}

// TestSSEClosesOnCancel holds a job in the queue behind a busy worker,
// cancels it, and requires every subscriber's stream to end with the
// terminal event carrying the cancelled state.
func TestSSEClosesOnCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	// Occupy the single worker so the second job stays queued.
	blocker, err := s.Jobs().Submit(JobRequest{Kind: KindEval, Workload: "espresso", Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	resp, sub := postJSON(t, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"suite","scale":%g}`, testScale))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	js := decodeStatus(t, sub)

	framesCh := make(chan []sseFrame, 1)
	go func() { framesCh <- streamSSE(t, ts.URL+js.EventsURL, "") }()

	delReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+js.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()

	select {
	case frames := <-framesCh:
		if len(frames) == 0 {
			t.Fatal("no frames before stream close")
		}
		last := frames[len(frames)-1]
		if last.event != telemetry.EventDone || last.data.State == nil || last.data.State.State != string(StateCancelled) {
			t.Fatalf("stream ended with %+v, want done/cancelled", last)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("stream did not close after cancel")
	}
	s.Jobs().Cancel(blocker)
	<-blocker.Done()
}

// TestSweepSSEMonotonicProgress runs a 64-cell sweep and requires the
// event stream to show per-cell progress that only moves forward,
// reaches every cell, and terminates with the done event.
func TestSweepSSEMonotonicProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Parallelism: 2})

	grid := `{"sizes":[2048,4096,8192,16384],"chunks":[0,512],"layouts":["natural","ccdp"],"heaps":["first","temporal"],"cutoffs":[0,0.001]}`
	resp, sub := postJSON(t, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"sweep","workload":"espresso","scale":%g,"grid":%s}`, testScale, grid))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	js := decodeStatus(t, sub)

	frames := streamSSE(t, ts.URL+js.EventsURL, "")
	last := frames[len(frames)-1]
	if last.event != telemetry.EventDone || last.data.State.State != string(StateDone) {
		t.Fatalf("stream ended with %+v, want done", last)
	}

	var sweeps []telemetry.SweepProgress
	for _, f := range frames {
		if f.event == telemetry.EventSweep {
			sweeps = append(sweeps, *f.data.Sweep)
		}
	}
	if len(sweeps) == 0 {
		t.Fatal("no sweep progress events")
	}
	var prev telemetry.SweepProgress
	for i, sp := range sweeps {
		if sp.CellsTotal != 64 {
			t.Fatalf("sweep event %d CellsTotal = %d, want 64", i, sp.CellsTotal)
		}
		if sp.CellsDone < prev.CellsDone || sp.GroupsDone < prev.GroupsDone ||
			sp.Batches < prev.Batches || sp.Events < prev.Events {
			t.Fatalf("sweep progress regressed: %+v after %+v", sp, prev)
		}
		prev = sp
	}
	if prev.CellsDone != 64 {
		t.Fatalf("final CellsDone = %d, want 64", prev.CellsDone)
	}
	distinct := map[int]bool{}
	for _, sp := range sweeps {
		distinct[sp.CellsDone] = true
	}
	if len(distinct) < 32 {
		t.Fatalf("only %d distinct CellsDone values across %d events", len(distinct), len(sweeps))
	}

	// The final job status retains the sweep's last progress report.
	final := waitTerminal(t, ts.URL, js.ID)
	if final.Sweep == nil || final.Sweep.CellsDone != 64 || final.Sweep.CellsTotal != 64 {
		t.Fatalf("final status sweep progress = %+v", final.Sweep)
	}
}

// TestTelemetryZeroPerturbation is the differential gate: with the full
// telemetry stack live (recorder, hub, sweep progress), served result
// bytes must equal a direct pipeline run with no telemetry at all — at
// parallelism 1 and 4.
func TestTelemetryZeroPerturbation(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel-%d", par), func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: 1, Parallelism: par})

			// Eval: byte-identical to a silent core run.
			resp, sub := postJSON(t, ts.URL+"/v1/jobs",
				fmt.Sprintf(`{"kind":"eval","workload":"espresso","scale":%g}`, testScale))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %s", resp.Status)
			}
			js := waitTerminal(t, ts.URL, decodeStatus(t, sub).ID)
			if js.State != StateDone {
				t.Fatalf("eval job finished %s (%s)", js.State, js.Error)
			}
			_, served := get(t, ts.URL+js.ResultURL)

			w, err := workload.Get("espresso")
			if err != nil {
				t.Fatal(err)
			}
			opts := sim.DefaultOptions()
			opts.Parallelism = par
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
				t.Fatalf("eval bytes differ from silent run:\nserver: %.300s\ndirect: %.300s",
					served, direct.Bytes())
			}

			// Sweep: cell rows and decode counters identical to a silent
			// shared run (throughput is wall-clock and excluded).
			grid := sweep.Grid{Sizes: []int64{4096, 8192}, Layouts: []string{"natural", "ccdp"}}
			resp, sub = postJSON(t, ts.URL+"/v1/jobs",
				fmt.Sprintf(`{"kind":"sweep","workload":"espresso","scale":%g,"grid":{"sizes":[4096,8192],"layouts":["natural","ccdp"]}}`, testScale))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit sweep: %s", resp.Status)
			}
			js = waitTerminal(t, ts.URL, decodeStatus(t, sub).ID)
			if js.State != StateDone {
				t.Fatalf("sweep job finished %s (%s)", js.State, js.Error)
			}
			_, servedSweep := get(t, ts.URL+js.ResultURL)
			var got struct {
				Cells   []report.SweepRow `json:"cells"`
				Events  uint64            `json:"events"`
				Batches uint64            `json:"batches"`
			}
			if err := json.Unmarshal(servedSweep, &got); err != nil {
				t.Fatal(err)
			}

			inputs := benchsuite.ScaledInputs(w, testScale)
			silentOpts := sim.DefaultOptions()
			silentOpts.Parallelism = par
			prep, err := sweep.NewPrep(sweep.Request{
				Workload: w, Train: inputs[0], Test: inputs[1],
				Grid: grid, Options: silentOpts,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := prep.RunShared(par)
			if err != nil {
				t.Fatal(err)
			}
			if got.Events != res.Events || got.Batches != res.Batches {
				t.Fatalf("decode counters differ: served %d/%d, silent %d/%d",
					got.Events, got.Batches, res.Events, res.Batches)
			}
			gotRows, _ := json.Marshal(got.Cells)
			wantRows, _ := json.Marshal(res.Rows())
			if !bytes.Equal(gotRows, wantRows) {
				t.Fatalf("sweep cells differ from silent run:\nserver: %.300s\ndirect: %.300s",
					gotRows, wantRows)
			}
		})
	}
}

// TestTraceEndpointAndLedgerTrace checks the span tree both ways out of
// the server: the live /trace rendering and the trace event sealed into
// the job ledger (schema v4).
func TestTraceEndpointAndLedgerTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, sub := postJSON(t, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"eval","workload":"espresso","scale":%g}`, testScale))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	js := waitTerminal(t, ts.URL, decodeStatus(t, sub).ID)
	if js.State != StateDone {
		t.Fatalf("job finished %s (%s)", js.State, js.Error)
	}

	_, body := get(t, ts.URL+js.TraceURL)
	var tr JobTrace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != js.ID || tr.State != StateDone {
		t.Fatalf("trace header %+v", tr)
	}
	if len(tr.Spans) == 0 || tr.Spans[0].Stage != "job" || tr.Spans[0].ID != 1 {
		t.Fatalf("trace missing job root: %+v", tr.Spans)
	}
	stages := map[string]int{}
	evalCounters := false
	for _, sp := range tr.Spans {
		stages[sp.Stage]++
		if sp.EndNs == 0 || sp.EndNs < sp.StartNs {
			t.Fatalf("span not closed or inverted: %+v", sp)
		}
		if sp.Stage == "eval" {
			if sp.Label == "" {
				t.Fatalf("eval span without input/layout label: %+v", sp)
			}
			for _, cd := range sp.Counters {
				if cd.Name == "sim.accesses" && cd.Delta > 0 {
					evalCounters = true
				}
			}
		}
	}
	if stages["profile"] == 0 || stages["place"] == 0 || stages["eval"] < 4 {
		t.Fatalf("trace stage census %v, want profile, place, and 4 eval units", stages)
	}
	if !evalCounters {
		t.Fatalf("no eval span carries a sim.accesses counter delta:\n%s", body)
	}

	// The same tree rides in the sealed ledger as its trace event.
	_, raw := get(t, ts.URL+js.LedgerURL)
	run, err := ledger.Replay(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Traces) != 1 {
		t.Fatalf("ledger has %d trace events, want 1", len(run.Traces))
	}
	lt := run.Traces[0]
	if lt.Job != js.ID || lt.State != string(StateDone) || len(lt.Spans) != len(tr.Spans) {
		t.Fatalf("ledger trace %s/%s with %d spans, want %s/done with %d",
			lt.Job, lt.State, len(lt.Spans), js.ID, len(tr.Spans))
	}
}

// TestMetricsEndpoint checks /metrics serves a lint-clean Prometheus
// exposition carrying the server's counters and the Go runtime gauges.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, sub := postJSON(t, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"eval","workload":"espresso","scale":%g}`, testScale))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if js := waitTerminal(t, ts.URL, decodeStatus(t, sub).ID); js.State != StateDone {
		t.Fatalf("job finished %s (%s)", js.State, js.Error)
	}

	mResp, body := get(t, ts.URL+"/metrics")
	if mResp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", mResp.Status)
	}
	text := string(body)
	for _, want := range []string{
		"ccdp_server_jobs_submitted_total 1",
		"ccdp_server_jobs_done_total 1",
		"ccdp_profile_memo_misses_total 1",
		"ccdp_server_requests_total ",
		"ccdp_go_goroutines ",
		`ccdp_server_request_ns_bucket{le="+Inf"} `,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%.2000s", want, text)
		}
	}
	if n, err := metrics.LintProm(text); err != nil || n == 0 {
		t.Fatalf("/metrics failed lint (%d samples): %v", n, err)
	}

	// The JSON snapshot satellite: runtime stats ride along.
	_, snap := get(t, ts.URL+"/debug/snapshot")
	var ds struct {
		Runtime metrics.RuntimeSnapshot `json:"runtime"`
	}
	if err := json.Unmarshal(snap, &ds); err != nil {
		t.Fatal(err)
	}
	if ds.Runtime.Goroutines <= 0 || ds.Runtime.HeapInuseBytes == 0 {
		t.Fatalf("snapshot runtime section implausible: %+v", ds.Runtime)
	}
}
