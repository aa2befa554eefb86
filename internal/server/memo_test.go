package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// memoCounts reads the server's profile-memo hit and miss counters.
func memoCounts(s *Server) (hits, misses uint64) {
	return s.mc.Get(metrics.ProfileMemoHits), s.mc.Get(metrics.ProfileMemoMisses)
}

// submitAndFetch submits one job and returns its result bytes.
func submitAndFetch(t *testing.T, base, body string) []byte {
	t.Helper()
	resp, sub := postJSON(t, base+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: %s: %s", body, resp.Status, sub)
	}
	js := waitTerminal(t, base, decodeStatus(t, sub).ID)
	if js.State != StateDone {
		t.Fatalf("job %s finished %s (%s)", body, js.State, js.Error)
	}
	_, out := get(t, base+js.ResultURL)
	return out
}

// directResult runs a job's experiment through core without the server
// (and so without its profile memo) and renders it the way the server
// does.
func directResult(t *testing.T, s *Server, req JobRequest) []byte {
	t.Helper()
	if err := s.validate(&req); err != nil {
		t.Fatal(err)
	}
	w, err := workload.Get(req.Workload)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := core.RunExperiment(core.Experiment{
		Workload: w,
		Options:  s.optionsFor(req, nil),
		Layouts:  layoutKinds(req.Layouts),
		Inputs:   selectInputs(w, req.Scale, req.Inputs),
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	switch req.Kind {
	case KindPlace:
		out, err = renderPlacement(cmp)
	case KindExplain:
		out, err = renderExplain(cmp)
	default:
		out, err = renderComparisons([]*core.Comparison{cmp})
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProfileMemoConcurrentJobs runs eval, place and explain jobs over
// three programs, each submitted twice and all at once, on one server
// (run it under -race): every result is byte-identical to a direct core
// run, and the memo ends with one entry per program.
func TestProfileMemoConcurrentJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Queue: 32, Parallelism: 2})
	programs := []string{"compress", "m88ksim", "go"}
	kinds := []JobKind{KindEval, KindPlace, KindExplain}

	type job struct {
		req JobRequest
		id  string
	}
	var jobs []job
	for round := 0; round < 2; round++ {
		for _, p := range programs {
			for _, k := range kinds {
				req := JobRequest{Kind: k, Workload: p, Scale: testScale}
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				resp, sub := postJSON(t, ts.URL+"/v1/jobs", string(body))
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit %s: %s: %s", body, resp.Status, sub)
				}
				jobs = append(jobs, job{req: req, id: decodeStatus(t, sub).ID})
			}
		}
	}

	name := func(r JobRequest) string { return string(r.Kind) + " " + r.Workload }
	want := map[string][]byte{}
	for _, j := range jobs[:len(jobs)/2] {
		want[name(j.req)] = directResult(t, s, j.req)
	}
	for _, j := range jobs {
		js := waitTerminal(t, ts.URL, j.id)
		if js.State != StateDone {
			t.Fatalf("%s finished %s (%s)", name(j.req), js.State, js.Error)
		}
		_, served := get(t, ts.URL+js.ResultURL)
		if string(served) != string(want[name(j.req)]) {
			t.Fatalf("%s (%s): served bytes differ from a direct core run", name(j.req), j.id)
		}
	}

	// Explain jobs profile with attribution on, which the profile pass
	// does not read, so all three kinds share one entry per program.
	hits, misses := memoCounts(s)
	if hits+misses != uint64(len(jobs)) || misses < uint64(len(programs)) {
		t.Fatalf("memo counted %d hits + %d misses for %d jobs over %d programs", hits, misses, len(jobs), len(programs))
	}
	// A worker misses a key at most once: its own miss stores it.
	if max := uint64(2 * len(programs)); misses > max {
		t.Fatalf("memo counted %d misses, more than %d workers x %d programs", misses, 2, len(programs))
	}
	if n := s.profiles.Len(); n != len(programs) {
		t.Fatalf("memo holds %d entries, want %d", n, len(programs))
	}
}

// TestProfileMemoKeyCoverage sends, after a plain job, one job per
// request override that reaches the profiling pass. Each must miss and
// return the bytes a fresh server returns. A job that changes only the
// scale or the cache associativity must hit, with the same guarantee.
func TestProfileMemoKeyCoverage(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	job := func(extra string) string {
		return fmt.Sprintf(`{"kind":"eval","workload":"compress","scale":%g%s}`, testScale, extra)
	}
	submitAndFetch(t, ts.URL, job(""))

	cases := []struct {
		name, body string
		hit        bool
	}{
		{"cache.size", job(`,"cache":{"size":16384}`), false},
		{"profile.chunk", job(`,"profile":{"chunk":512}`), false},
		{"profile.queue", job(`,"profile":{"queue":65536}`), false},
		{"profile.cutoff", job(`,"profile":{"cutoff":0.9}`), false},
		{"scale", `{"kind":"eval","workload":"compress","scale":0.04}`, true},
		{"cache.assoc", job(`,"cache":{"assoc":2}`), true},
	}
	for _, c := range cases {
		h0, m0 := memoCounts(s)
		got := submitAndFetch(t, ts.URL, c.body)
		h1, m1 := memoCounts(s)
		if hit := h1 == h0+1 && m1 == m0; hit != c.hit {
			t.Errorf("%s: hit=%v (hits %d->%d, misses %d->%d), want hit=%v", c.name, hit, h0, h1, m0, m1, c.hit)
		}
		_, fresh := newTestServer(t, Config{Workers: 1})
		if want := submitAndFetch(t, fresh.URL, c.body); string(got) != string(want) {
			t.Errorf("%s: bytes differ from a fresh server's", c.name)
		}
	}
}

// TestProfileMemoObservability checks a hit still reports its profile
// stage: the trace carries a profile span labelled memo, the ledger its
// profile span, and /metrics both memo counters in lint-clean form.
func TestProfileMemoObservability(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := fmt.Sprintf(`{"kind":"eval","workload":"espresso","scale":%g}`, testScale)
	var labels []string
	for i := 0; i < 2; i++ {
		resp, sub := postJSON(t, ts.URL+"/v1/jobs?wait=true", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit: %s: %s", resp.Status, sub)
		}
		js := decodeStatus(t, sub)
		_, raw := get(t, ts.URL+js.TraceURL)
		var tr JobTrace
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatal(err)
		}
		for _, sp := range tr.Spans {
			if sp.Stage == "profile" {
				labels = append(labels, sp.Label)
			}
		}
		_, ledgerRaw := get(t, ts.URL+js.LedgerURL)
		if !strings.Contains(string(ledgerRaw), `"stage":"profile"`) {
			t.Fatalf("job %d ledger has no profile span:\n%.1000s", i, ledgerRaw)
		}
	}
	if len(labels) != 2 || labels[0] != "" || labels[1] != core.SpanLabelMemo {
		t.Fatalf("profile span labels %q, want [\"\" %q]", labels, core.SpanLabelMemo)
	}

	_, m := get(t, ts.URL+"/metrics")
	text := string(m)
	for _, want := range []string{"ccdp_profile_memo_hits_total 1\n", "ccdp_profile_memo_misses_total 1\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%.2000s", want, text)
		}
	}
	if _, err := metrics.LintProm(text); err != nil {
		t.Fatalf("/metrics failed lint: %v", err)
	}
}

// TestSubmitBodyLimit checks an oversized job body is refused with 413
// and registers no job.
func TestSubmitBodyLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	body := `{"kind":"eval","workload":"` + strings.Repeat("a", maxRequestBytes) + `"}`
	resp, out := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %s: %s", resp.Status, out)
	}
	if n := len(s.Jobs().List()); n != 0 {
		t.Fatalf("oversized body registered %d job(s)", n)
	}
	if n := s.mc.Get(metrics.ServerJobsSubmitted); n != 0 {
		t.Fatalf("oversized body counted %d submission(s)", n)
	}
}

// TestListenReadHeaderTimeout checks Listen bounds header reads and that
// the bound closes a connection whose headers never finish.
func TestListenReadHeaderTimeout(t *testing.T) {
	g, err := Listen("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	if got := g.srv.ReadHeaderTimeout; got != readHeaderTimeout || got <= 0 {
		t.Fatalf("Listen's ReadHeaderTimeout is %s, want %s", got, readHeaderTimeout)
	}
	if err := g.Close(time.Second); err != nil {
		t.Fatal(err)
	}

	g, err = listen("127.0.0.1:0", http.NotFoundHandler(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close(time.Second)
	conn, err := net.Dial("tcp", g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server closes the stalled connection; a client-side deadline
	// error means it was held open.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled header was not cut off: %v", err)
	}
}
