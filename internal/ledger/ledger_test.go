package ledger

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// scriptedLedger writes a small fixed run — two workloads, four eval
// passes, spans, a placement, a metrics snapshot — with deterministic
// timing derived from a fixed epoch, so the output bytes are stable.
func scriptedLedger(w *Writer) {
	epoch := w.Epoch()
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }

	w.RunStart(RunStart{
		Tool: "test", SHA: "deadbeef", Scale: 0.15, Parallelism: 2,
		Workloads: []string{"alpha", "beta"}, Cache: "8KB direct-mapped",
	})
	for i, name := range []string{"alpha", "beta"} {
		base := i * 100
		w.WorkloadStart(WorkloadStart{Workload: name,
			Inputs: []string{"train", "test"}, Layouts: []string{"natural", "ccdp"}})
		w.Span(name, "profile", at(base+1), 20*time.Millisecond)
		w.Span(name, "place", at(base+21), 5*time.Millisecond)
		w.Placement(Placement{Workload: name, Globals: 10, SegmentBytes: 4096,
			HeapPlans: 3, Bins: 2, PredictedConflict: 42,
			Merges: []MergeDecision{{A: 0, B: 1, Weight: 100, ChosenLine: 3, Members: 2}}})
		for j, in := range []string{"train", "test"} {
			for k, lay := range []string{"natural", "ccdp"} {
				nat := 10.0 - float64(i)
				rate := nat
				if lay == "ccdp" {
					rate = nat * (1 - 0.1*float64(j+1)) // 10% / 20% reductions
				}
				w.Span(name, "eval", at(base+30+10*(2*j+k)), 8*time.Millisecond)
				w.Eval(Eval{Workload: name, Input: in, Layout: lay,
					Accesses: 1000, Misses: uint64(rate * 10), MissRatePct: rate,
					ByCategoryPct: []CategoryRate{{Category: "stack", MissPct: rate / 2}}})
			}
		}
		w.WorkloadEnd(WorkloadEnd{Workload: name, Reductions: []Reduction{
			{Input: "train", ReductionPct: 10}, {Input: "test", ReductionPct: 20}}})
	}
	w.Sweep(Sweep{
		Workload: "alpha", Input: "test", Engine: "shared",
		Cells: []SweepCell{
			{Size: 8192, Block: 32, Assoc: 1, Layout: "natural", Bytes: 8192,
				Accesses: 1000, Misses: 100, MissRatePct: 10, Pareto: true},
			{Size: 8192, Block: 32, Assoc: 1, L2: "96K/32/3w", TLB: 32,
				Chunk: 512, Queue: 16384, Cutoff: 0.001, Heap: "temporal",
				Layout: "ccdp", Bytes: 8192 + 96*1024,
				Accesses: 1000, Misses: 9, MissRatePct: 0.9, Pareto: true},
		},
		WallNs: int64(40 * time.Millisecond), DecodeNs: int64(10 * time.Millisecond),
		Batches: 3, Events: 2000, ConfigsPerSec: 50, DecodeSharePct: 25,
		PrepNs: int64(8 * time.Millisecond), PrepSharePct: 20,
		PeakPrepBytes: 65536, PrepBytesTotal: 131072,
		ProfilesBroadcast: 1, ProfilesDeduped: 1, Groups: 2,
	})
	w.Trace(Trace{
		Job: "job-0001", Kind: "eval", State: "done",
		Spans: []TraceSpan{
			{ID: 1, Stage: "job", StartNs: 0, EndNs: int64(240 * time.Millisecond)},
			{ID: 2, Parent: 1, Workload: "alpha", Stage: "workload",
				StartNs: int64(time.Millisecond), EndNs: int64(120 * time.Millisecond)},
			{ID: 3, Parent: 2, Workload: "alpha", Stage: "profile",
				StartNs: int64(time.Millisecond), EndNs: int64(21 * time.Millisecond),
				Counters: []CounterDelta{{Name: "trace.events", Delta: 1234}}},
			{ID: 4, Parent: 2, Workload: "alpha", Stage: "eval", Label: "train/ccdp",
				StartNs: int64(30 * time.Millisecond), EndNs: int64(38 * time.Millisecond),
				Counters: []CounterDelta{{Name: "sim.accesses", Delta: 1000}}},
		},
	})
	w.Trace(Trace{
		Job: "job-0002", Kind: "sweep", State: "failed",
		Error: "server: job panicked: boom\ngoroutine 7 [running]:",
		Spans: []TraceSpan{{ID: 1, Stage: "job", StartNs: 0, EndNs: int64(5 * time.Millisecond)}},
	})
	mc := metrics.New()
	mc.Add(metrics.TraceEvents, 1234)
	mc.AddNamed("sim.misses.ccdp", 99)
	mc.Observe(metrics.HistAllocSize, 48) // exercises the v4 cumulative buckets
	w.Metrics(mc.Snapshot())
	w.RunEnd(RunEnd{Workloads: 2, AvgTrainReductionPct: 10,
		AvgTestReductionPct: 20, WallNs: int64(250 * time.Millisecond)})
}

// TestGolden locks the exact serialized form of every event kind for
// schema v5. A byte-level change here is a schema change: bump
// SchemaVersion, re-freeze the fingerprint, and regenerate with -update.
func TestGolden(t *testing.T) {
	var buf bytes.Buffer
	w := NewAt(&buf, time.Unix(1700000000, 0).UTC())
	scriptedLedger(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden_v5.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("ledger bytes differ from %s (schema change? bump SchemaVersion and regenerate with -update)\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// frozenFingerprint is the complete reachable schema of version 5,
// rendered by SchemaFingerprint. If TestSchemaFrozen fails here, a field
// was added, removed, renamed, or retyped without bumping SchemaVersion:
// bump it, regenerate the golden file, and re-freeze this constant (the
// test failure message prints the new value).
const frozenFingerprint = "v5 Event{v:int seq:uint64 event:string" +
	" runStart:*RunStart{schemaVersion:int tool:string sha:string scale:float64 parallelism:int workloads:[]string cache:string}" +
	" workloadStart:*WorkloadStart{workload:string inputs:[]string layouts:[]string}" +
	" span:*Span{workload:string stage:string startNs:int64 wallNs:int64}" +
	" placement:*Placement{workload:string globals:int segmentBytes:int64 heapPlans:int bins:int predictedConflict:uint64 merges:[]MergeDecision{a:int b:int weight:uint64 chosenLine:int members:int}}" +
	" eval:*Eval{workload:string input:string layout:string accesses:uint64 misses:uint64 missRatePct:float64 byCategoryPct:[]CategoryRate{category:string missPct:float64} totalPages:int workingSetPages:float64}" +
	" sweep:*Sweep{workload:string input:string engine:string cells:[]SweepCell{size:int64 block:int64 assoc:int l2:string tlb:int chunk:int64 queue:int64 cutoff:float64 heap:string layout:string bytes:int64 accesses:uint64 misses:uint64 missRatePct:float64 pareto:bool} wallNs:int64 decodeNs:int64 batches:uint64 events:uint64 configsPerSec:float64 decodeSharePct:float64 prepNs:int64 prepSharePct:float64 peakPrepBytes:int64 prepBytesTotal:int64 profilesBroadcast:int profilesDeduped:int groups:int}" +
	" workloadEnd:*WorkloadEnd{workload:string reductions:[]Reduction{input:string reductionPct:float64}}" +
	" trace:*Trace{job:string kind:string state:string error:string spans:[]TraceSpan{id:int parent:int workload:string stage:string label:string startNs:int64 endNs:int64 counters:[]CounterDelta{name:string delta:uint64}}}" +
	" metrics:*Snapshot{counters:[]CounterSnapshot{name:string value:uint64} named:[]CounterSnapshot stages:[]StageSnapshot{name:string count:uint64 totalNanos:uint64 avgNanos:uint64 maxNanos:uint64} histograms:[]HistSnapshot{name:string count:uint64 sum:uint64 mean:float64 p50:uint64 p90:uint64 p99:uint64 buckets:[]HistBucket{le:uint64 count:uint64}}}" +
	" runEnd:*RunEnd{workloads:int avgTrainReductionPct:float64 avgTestReductionPct:float64 wallNs:int64}}"

// TestSchemaFrozen is the tripwire the issue asks for: extending any
// event payload (or metrics.Snapshot, which ledgers embed) without a
// version bump fails this test.
func TestSchemaFrozen(t *testing.T) {
	got := SchemaFingerprint()
	if got != frozenFingerprint {
		t.Errorf("ledger schema changed without a version bump.\nIf intentional: bump SchemaVersion, regenerate the golden file, and freeze the new fingerprint:\n%s", got)
	}
}

// TestReplayRoundTrip drives the scripted run through Replay and checks
// the read side reconstructs the result numbers.
func TestReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewAt(&buf, time.Unix(1700000000, 0).UTC())
	scriptedLedger(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	run, err := Replay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if run.Start == nil || run.Start.Tool != "test" || run.Start.SchemaVersion != SchemaVersion {
		t.Fatalf("run_start not reconstructed: %+v", run.Start)
	}
	if run.End == nil || run.End.Workloads != 2 {
		t.Fatalf("run_end not reconstructed: %+v", run.End)
	}
	if got := run.WorkloadNames(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("workload names = %v", got)
	}
	if len(run.Evals) != 8 || len(run.Spans) != 12 || len(run.Placement) != 2 || len(run.Metrics) != 1 {
		t.Fatalf("event counts: evals=%d spans=%d placements=%d metrics=%d",
			len(run.Evals), len(run.Spans), len(run.Placement), len(run.Metrics))
	}
	if len(run.Traces) != 2 || run.Traces[0].Job != "job-0001" || len(run.Traces[0].Spans) != 4 {
		t.Fatalf("trace not reconstructed: %+v", run.Traces)
	}
	if tr := run.Traces[1]; tr.State != "failed" || !strings.HasPrefix(tr.Error, "server: job panicked: boom\n") {
		t.Fatalf("failed job's trace not reconstructed: %+v", tr)
	}
	if c := run.Traces[0].Spans[2].Counters; len(c) != 1 || c[0].Delta != 1234 {
		t.Fatalf("trace span counters = %+v", c)
	}
	// The scripted rates encode exactly 10% train / 20% test reductions.
	for _, name := range []string{"alpha", "beta"} {
		if got := run.Reduction(name, "train"); got < 9.99 || got > 10.01 {
			t.Errorf("%s train reduction = %g, want 10", name, got)
		}
		if got := run.Reduction(name, "test"); got < 19.99 || got > 20.01 {
			t.Errorf("%s test reduction = %g, want 20", name, got)
		}
	}
	sum := run.Summary()
	for _, want := range []string{"workload", "alpha", "beta", "avg", "10.00", "20.00"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	// The metrics snapshot survives the trip with its lookup helpers.
	if v, ok := run.Metrics[0].Counter("trace.events"); !ok || v != 1234 {
		t.Errorf("metrics counter trace.events = %d, %v", v, ok)
	}
}

// TestReplayRejects checks the validation failure modes: wrong version,
// broken sequence, unknown kind. Each case is written at the current
// version unless its version is the fault, and must be rejected for its
// own reason.
func TestReplayRejects(t *testing.T) {
	line := func(v int, rest string) string { return fmt.Sprintf(`{"v":%d,%s`, v, rest) }
	runEnd := `"seq":0,"event":"run_end","runEnd":{}}`
	cases := map[string]struct{ line, why string }{
		"version":        {line(999, runEnd), "schema version"},
		"old version v1": {line(1, runEnd), "schema version"},
		"old version v2": {line(2, runEnd), "schema version"},
		"old version v3": {line(3, runEnd), "schema version"},
		"old version v4": {line(4, runEnd), "schema version"},
		"sequence":       {line(SchemaVersion, `"seq":5,"event":"run_end","runEnd":{}}`), "sequence 5"},
		"kind":           {line(SchemaVersion, `"seq":0,"event":"nonsense"}`), "unknown event kind"},
		"json":           {`{not json`, "invalid character"},
	}
	for name, tc := range cases {
		_, err := Replay(strings.NewReader(tc.line + "\n"))
		if err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: Replay(%q) = %v, want an error about %q", name, tc.line, err, tc.why)
		}
	}
	// The cases above stand for valid lines: at the current version with
	// the right sequence, the same run_end line replays.
	if _, err := Replay(strings.NewReader(line(SchemaVersion, runEnd) + "\n")); err != nil {
		t.Fatalf("valid run_end line rejected: %v", err)
	}
}

// TestNilWriter holds every method to the nil-receiver contract.
func TestNilWriter(t *testing.T) {
	var w *Writer
	w.RunStart(RunStart{})
	w.WorkloadStart(WorkloadStart{})
	w.Span("", "profile", time.Now(), time.Second)
	w.Placement(Placement{})
	w.Eval(Eval{})
	w.Sweep(Sweep{})
	w.WorkloadEnd(WorkloadEnd{})
	w.Trace(Trace{})
	w.Metrics(metrics.Snapshot{})
	w.RunEnd(RunEnd{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateFile exercises the file-backed path end to end.
func TestCreateFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.RunStart(RunStart{Tool: "test"})
	w.RunEnd(RunEnd{Workloads: 0})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if run.Events != 2 || run.Start == nil || run.End == nil {
		t.Fatalf("replayed %d events, start=%v end=%v", run.Events, run.Start, run.End)
	}
}
